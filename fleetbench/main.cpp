// fleetbench — runs one workload of the fleet co-simulation benchmark in this
// process and prints one JSON object: the box record, the trace checksum,
// the correctness findings, and either the end-to-end metrics (timed run) or
// the per-layer metrics (traced run, which also writes its span file).
// fleetbench/run.py builds this program, runs it, checks the checksum and
// prints the benchmark's result line.
//
//   fleetbench --workload NAME --seed N --trace 0|1 [--scratch DIR]
//              [--spans FILE]
//
// The pool has one worker per CPU in the process's affinity mask, and a run
// steps the workload's fixed epoch count however long that takes.
//
// Exit status: 0 when every check passed, 1 when a check failed (the JSON is
// still printed), 2 on bad arguments or an unoptimised build.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

using namespace fleetbench;
using aqua::obs::escape_json_string;
using aqua::obs::json_double;

// The modules spans are attributed to; each gets a self-time metric even when
// the workload never calls it.
const char* const kLayers[] = {"bench", "fleet", "hydro",  "fault",
                               "state", "sensor", "core",  "isif",
                               "maf",   "analog", "simd",  "phys"};

struct Args {
  std::string workload;
  std::uint64_t seed = 2008;
  int trace = 0;
  std::string scratch = ".";
  std::string spans;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (key == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (key == "--scratch") {
      a.scratch = v;
    } else if (key == "--spans") {
      a.spans = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && (a.trace == 0 || a.trace == 1);
}

std::string json_map(const std::map<std::string, double>& m) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    o << (first ? "" : ", ") << "\"" << escape_json_string(k)
      << "\": " << json_double(v);
    first = false;
  }
  o << "}";
  return o.str();
}

std::string json_strings(const std::vector<std::string>& v) {
  std::ostringstream o;
  o << "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    o << (i ? ", " : "") << "\"" << escape_json_string(v[i]) << "\"";
  o << "]";
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload NAME --seed N --trace 0|1 "
                 "[--scratch DIR] [--spans FILE]\n");
    return 2;
  }
  try {
    const WorkloadSpec spec = workload(a.workload);
    RunOptions options;
    options.seed = a.seed;
    options.workers = available_cpus();
    options.scratch_dir = a.scratch;

    const BoxRecord box = box_record(options.workers);
    if (!box.optimized) {
      std::fprintf(stderr,
                   "fleetbench: refusing to measure a %s build; configure "
                   "with -DCMAKE_BUILD_TYPE=Release\n",
                   box.build_type.c_str());
      return 2;
    }

    std::map<std::string, double> metrics;
    std::map<std::string, double> details;
    std::vector<std::string> errors;
    std::uint64_t checksum = 0;
    long long attempted = 0;
    long long failed = 0;

    if (a.trace == 0) {
      const TimedResult r = run_timed(spec, options);
      double loop_s = 0.0;
      for (const double e : r.epoch_s) loop_s += e;
      const Tail tail = tail_of(r.epoch_s);
      metrics["sensor_sim_s_per_wall_s"] =
          static_cast<double>(r.sensors) * r.sim_s_per_epoch *
          static_cast<double>(r.epoch_s.size()) / loop_s;
      metrics["epoch_p50_ms"] = 1e3 * quantile(r.epoch_s, 0.5);
      metrics["epoch_tail_ms"] = 1e3 * tail.value;
      metrics["setup_s"] = quantile(r.setup_s, 0.5);
      metrics["peak_rss_mb"] = r.peak_rss_mb;
      metrics["estimate_rmse_pctfs"] = r.accuracy.rmse_pct_fs();
      metrics["ok_share"] =
          1.0 - static_cast<double>(r.accuracy.failed) /
                    static_cast<double>(r.accuracy.attempted);
      details["epoch_tail_percentile"] = tail.percentile;
      details["epochs"] = static_cast<double>(tail.samples);
      details["loop_s"] = loop_s;
      details["checkpoints"] = static_cast<double>(r.checkpoints);
      details["solve_failures"] = static_cast<double>(r.solve_failures);
      for (std::size_t k = 0; k < r.setup_s.size(); ++k)
        details["setup_s." + std::to_string(k)] = r.setup_s[k];
      checksum = r.checksum;
      attempted = r.accuracy.attempted;
      failed = r.accuracy.failed;
      errors = r.errors;
    } else {
      TracedResult r = run_traced(spec, options);
      for (const char* layer : kLayers)
        metrics[std::string(layer) + ".self_s"] = 0.0;
      for (const auto& [k, v] : r.metrics) metrics[k] = v;
      details = r.details;
      details["traced_sensor_sim_s_per_wall_s"] = r.sensor_sim_s_per_wall_s;
      details["wall_s"] = r.wall_s;
      checksum = r.checksum;
      attempted = static_cast<long long>(r.sensors) * spec.epochs;
      failed = static_cast<long long>(r.details["failed_sensor_epochs"]);
      errors = r.errors;
      if (!a.spans.empty()) r.spans.write_json(a.spans);
    }

    std::printf(
        "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
        "\"box\": {\"nproc\": %u, \"hardware_concurrency\": %u, "
        "\"pool_threads\": %u, \"lane_width\": %d, \"compiler\": \"%s\", "
        "\"build_type\": \"%s\", \"log_level\": \"%s\"}, "
        "\"checksum\": \"%016llx\", \"errors\": %s, \"attempted\": %lld, "
        "\"failed\": %lld, \"metrics\": %s, \"details\": %s}\n",
        escape_json_string(spec.name).c_str(),
        static_cast<unsigned long long>(a.seed), a.trace, box.nproc,
        box.hardware_concurrency, box.pool_threads, box.lane_width,
        escape_json_string(box.compiler).c_str(),
        escape_json_string(box.build_type).c_str(),
        escape_json_string(box.log_level).c_str(),
        static_cast<unsigned long long>(checksum),
        json_strings(errors).c_str(), attempted, failed,
        json_map(metrics).c_str(), json_map(details).c_str());
    return errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 1;
  }
}
