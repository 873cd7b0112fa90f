#include "obs/admin_server.h"

#include <cstdio>

namespace updb {
namespace obs {

namespace {

constexpr char kIndexBody[] =
    "updb admin plane\n"
    "  /metrics   Prometheus exposition of the metrics registry\n"
    "  /healthz   liveness probe\n"
    "  /readyz    readiness probe (store attached, WAL ok, recovery clean)\n"
    "  /statusz   process overview (JSON)\n"
    "  /requestz  slow-request audit log (JSON)\n";

net::HttpResponse Plain(int status, std::string body) {
  net::HttpResponse resp;
  resp.status = status;
  resp.body = std::move(body);
  return resp;
}

net::HttpResponse Json(std::string body) {
  net::HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

}  // namespace

AdminServer::AdminServer(AdminServerOptions options)
    : options_(std::move(options)) {
  net::HttpServerOptions http_options;
  http_options.port = options_.port;
  http_options.max_connections = options_.max_connections;
  http_ = std::make_unique<net::HttpServer>(
      http_options,
      [this](const net::HttpRequest& req) { return Handle(req); });
}

AdminServer::~AdminServer() { Stop(); }

Status AdminServer::Start() {
  uptime_.Reset();
  return http_->Start();
}

void AdminServer::Stop() { http_->Stop(); }

net::HttpResponse AdminServer::Handle(
    const net::HttpRequest& request) const {
  const std::string path = request.Path();
  if (path == "/" || path == "/index") return Plain(200, kIndexBody);
  if (path == "/healthz") return Plain(200, "ok\n");
  if (path == "/readyz") return Readyz();
  if (path == "/statusz") return Statusz();
  if (path == "/metrics") {
    net::HttpResponse resp;
    // The exposition content type Prometheus scrapers expect.
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body =
        options_.registry != nullptr ? options_.registry->ToPrometheus() : "";
    return resp;
  }
  if (path == "/requestz") {
    if (options_.audit_log == nullptr) {
      return Json(
          "{\"capacity\": 0, \"observed\": 0, \"recorded\": 0, "
          "\"records\": []}");
    }
    return Json(options_.audit_log->ToJson());
  }
  return Plain(404, "no such endpoint; see / for the index\n");
}

net::HttpResponse AdminServer::Readyz() const {
  AdminReadiness readiness;
  if (options_.readiness) readiness = options_.readiness();
  if (readiness.ready) return Plain(200, "ok\n");
  return Plain(503, "not ready: " + readiness.reason + "\n");
}

net::HttpResponse AdminServer::Statusz() const {
  std::string body = "{";
  body += "\"build\": \"" + JsonEscape(options_.build_info) + "\", ";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"uptime_seconds\": %.3f",
                uptime_.ElapsedSeconds());
  body += buf;
  AdminReadiness readiness;
  if (options_.readiness) readiness = options_.readiness();
  body += std::string(", \"ready\": ") +
          (readiness.ready ? "true" : "false");
  body += ", \"ready_reason\": \"" + JsonEscape(readiness.reason) + "\"";
  if (options_.statusz_fields) {
    const std::string fields = options_.statusz_fields();
    if (!fields.empty()) body += ", " + fields;
  }
  body += "}";
  return Json(std::move(body));
}

}  // namespace obs
}  // namespace updb
