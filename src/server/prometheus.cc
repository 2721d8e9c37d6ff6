#include "server/prometheus.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/lock_profiler.h"
#include "server/server.h"

namespace educe::server {

namespace {

/// Prometheus label values escape exactly backslash, double quote and
/// newline (exposition format 0.0.4).
std::string LabelEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string Seconds(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9f", static_cast<double>(ns) / 1e9);
  return buf;
}

void Counter(std::string* out, const char* name, const char* help,
             uint64_t value) {
  *out += "# HELP ";
  *out += name;
  *out += " ";
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += " counter\n";
  *out += name;
  *out += " " + std::to_string(value) + "\n";
}

void Gauge(std::string* out, const char* name, const char* help,
           uint64_t value) {
  *out += "# HELP ";
  *out += name;
  *out += " ";
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += " gauge\n";
  *out += name;
  *out += " " + std::to_string(value) + "\n";
}

/// The engine's log-bucketed nanosecond histogram rendered as a
/// Prometheus cumulative histogram in seconds. Only buckets that hold
/// samples emit a line (le = the bucket's exclusive upper bound, i.e.
/// the next bucket's lower bound) — a full 256-bucket series per scrape
/// would be noise.
void HistogramSeconds(std::string* out, const char* name, const char* help,
                      const obs::Histogram& h) {
  *out += "# HELP ";
  *out += name;
  *out += " ";
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += " histogram\n";
  uint64_t cumulative = 0;
  for (size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    if (h.buckets()[i] == 0) continue;
    cumulative += h.buckets()[i];
    *out += name;
    *out += "_bucket{le=\"" + Seconds(obs::Histogram::BucketLowerBound(i + 1)) +
            "\"} " + std::to_string(cumulative) + "\n";
  }
  *out += name;
  *out += "_bucket{le=\"+Inf\"} " + std::to_string(h.count()) + "\n";
  *out += name;
  *out += "_sum " + Seconds(h.sum()) + "\n";
  *out += name;
  *out += "_count " + std::to_string(h.count()) + "\n";
}

}  // namespace

std::string RenderPrometheus(Engine* engine, const QueryServer* server) {
  std::string out;
  out.reserve(4096);

  const EngineStats stats = engine->Stats();

  out += "# HELP educe_build_info Build configuration flags as labels.\n";
  out += "# TYPE educe_build_info gauge\n";
  out += std::string("educe_build_info{lock_profiling=\"") +
         (obs::LockProfiler::compiled_in() ? "on" : "off") + "\"} 1\n";

  HistogramSeconds(&out, "educe_query_latency_seconds",
                   "End-to-end query latency (open to retire).",
                   engine->QueryLatencyHistogram());

  Counter(&out, "educe_instructions_total",
          "WAM instructions executed.", stats.machine.instructions);
  Counter(&out, "educe_calls_total", "WAM procedure calls.",
          stats.machine.calls);
  Counter(&out, "educe_backtracks_total", "WAM backtracks.",
          stats.machine.backtracks);
  Counter(&out, "educe_pages_read_total", "Pages read from the paged file.",
          stats.paged_file.pages_read);
  Counter(&out, "educe_pages_written_total",
          "Pages written to the paged file.", stats.paged_file.pages_written);
  Counter(&out, "educe_buffer_hits_total", "Buffer-pool hits.",
          stats.buffer_pool.hits);
  Counter(&out, "educe_code_cache_hits_total",
          "Code-cache hits (all tiers).",
          stats.code_cache.hits + stats.code_cache.pattern_hits +
              stats.code_cache.selection_hits);
  Counter(&out, "educe_clauses_decoded_total",
          "EDB clauses decoded by the loader.", stats.loader.clauses_decoded);
  Counter(&out, "educe_datalog_bottom_up_total",
          "Queries answered by the bottom-up Datalog evaluator.",
          stats.datalog.queries_bottom_up);
  Counter(&out, "educe_datalog_tuples_derived_total",
          "Tuples derived across bottom-up evaluations.",
          stats.datalog.tuples_derived);

  Counter(&out, "educe_spans_recorded_total",
          "Trace spans recorded into the rings.",
          engine->tracer()->recorded());
  Counter(&out, "educe_spans_dropped_total",
          "Trace spans overwritten before a drain saw them.",
          engine->tracer()->dropped());

  // Lock-site contention: one labelled series per site. Empty (and the
  // HELP/TYPE headers are still emitted) when EDUCE_LOCK_PROFILING is
  // compiled out or nothing recorded yet.
  const std::vector<obs::LockSiteStats> sites = obs::LockProfiler::Snapshot();
  out += "# HELP educe_lock_wait_seconds_total "
         "Cumulative time spent waiting to acquire, per lock site.\n";
  out += "# TYPE educe_lock_wait_seconds_total counter\n";
  for (const auto& s : sites) {
    out += "educe_lock_wait_seconds_total{site=\"" + LabelEscape(s.name) +
           "\"} " + Seconds(s.wait_total_ns()) + "\n";
  }
  out += "# HELP educe_lock_hold_seconds_total "
         "Cumulative time the lock was held, per lock site.\n";
  out += "# TYPE educe_lock_hold_seconds_total counter\n";
  for (const auto& s : sites) {
    out += "educe_lock_hold_seconds_total{site=\"" + LabelEscape(s.name) +
           "\"} " + Seconds(s.hold_total_ns()) + "\n";
  }
  out += "# HELP educe_lock_acquires_total "
         "Lock acquisitions by site and mode.\n";
  out += "# TYPE educe_lock_acquires_total counter\n";
  for (const auto& s : sites) {
    out += "educe_lock_acquires_total{site=\"" + LabelEscape(s.name) +
           "\",mode=\"exclusive\"} " + std::to_string(s.exclusive_acquires) +
           "\n";
    out += "educe_lock_acquires_total{site=\"" + LabelEscape(s.name) +
           "\",mode=\"shared\"} " + std::to_string(s.shared_acquires) + "\n";
  }
  out += "# HELP educe_lock_contended_total "
         "Acquisitions that found the lock already taken.\n";
  out += "# TYPE educe_lock_contended_total counter\n";
  for (const auto& s : sites) {
    out += "educe_lock_contended_total{site=\"" + LabelEscape(s.name) +
           "\"} " + std::to_string(s.contended) + "\n";
  }

  if (server != nullptr) {
    const QueryServer::Stats s = server->stats();
    Gauge(&out, "educe_server_connections_active",
          "Open client connections.", s.active);
    Counter(&out, "educe_server_connections_accepted_total",
            "Connections accepted.", s.accepted);
    Counter(&out, "educe_server_connections_refused_total",
            "Connections refused over max_connections.", s.refused);
    Counter(&out, "educe_server_queries_ok_total",
            "Queries streamed to done.", s.queries_ok);
    Counter(&out, "educe_server_queries_error_total",
            "Queries answered with an error line.", s.queries_error);
    Counter(&out, "educe_server_queries_aborted_total",
            "Queries whose reply write failed (client gone).",
            s.queries_aborted);
    Counter(&out, "educe_server_bindings_sent_total",
            "Binding lines put in a query reply.", s.bindings_sent);
    Counter(&out, "educe_server_writes_total",
            "Socket writes (one per reply, or per 64 KiB of one).",
            s.writes);
    const SessionPool* pool = server->pool();
    if (pool != nullptr) {
      Gauge(&out, "educe_server_pool_sessions", "Worker sessions in the pool.",
            pool->size());
      Gauge(&out, "educe_server_pool_idle", "Idle worker sessions.",
            pool->idle());
      Counter(&out, "educe_server_pool_acquired_total",
              "Session acquisitions.", pool->acquired());
      Counter(&out, "educe_server_pool_waited_total",
              "Acquisitions that had to wait.", pool->waited());
      Counter(&out, "educe_server_pool_exhausted_total",
              "Acquisition timeouts with the pool empty.", pool->exhausted());
    }
    const AdmissionControl* admission = server->admission();
    if (admission != nullptr) {
      Counter(&out, "educe_server_admitted_total", "Requests admitted.",
              admission->admitted());
      Counter(&out, "educe_server_shed_pressure_total",
              "Requests shed under memory pressure.",
              admission->shed_pressure());
      Counter(&out, "educe_server_shed_timeout_total",
              "Requests shed after the queue-wait bound.",
              admission->shed_timeout());
    }
  }
  return out;
}

}  // namespace educe::server
