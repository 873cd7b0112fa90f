// Copyright 2026 The updb Authors.
// Umbrella header: the full public API of updb, the reproduction of
// "A Novel Probabilistic Pruning Approach to Speed Up Similarity Queries
// in Uncertain Databases" (ICDE 2011).

#ifndef UPDB_UPDB_H_
#define UPDB_UPDB_H_

#include "cache/response_cache.h"
#include "cache/verdict_memo.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/idca.h"
#include "domination/criteria.h"
#include "domination/pdom.h"
#include "geom/distance.h"
#include "geom/interval.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "gf/count_bounds.h"
#include "gf/kernels.h"
#include "gf/poisson_binomial.h"
#include "gf/ugf_batch.h"
#include "index/rtree.h"
#include "io/dataset_io.h"
#include "mc/monte_carlo.h"
#include "net/http.h"
#include "obs/admin_server.h"
#include "obs/audit_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "queries/expected_distance.h"
#include "queries/queries.h"
#include "service/introspection.h"
#include "service/metrics.h"
#include "service/query_service.h"
#include "service/request.h"
#include "service/trace.h"
#include "store/checkpoint.h"
#include "store/object_store.h"
#include "store/recovery.h"
#include "store/snapshot_index.h"
#include "store/wal.h"
#include "uncertain/database.h"
#include "uncertain/decomposition.h"
#include "uncertain/object.h"
#include "uncertain/pdf.h"
#include "workload/churn.h"
#include "workload/generators.h"

#endif  // UPDB_UPDB_H_
