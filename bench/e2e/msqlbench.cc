// msqlbench: the repository's end-to-end benchmark (bench/e2e/README.md).
//
//   msqlbench --all --seed=N [--seconds=S] [--out=FILE] [--trace=1]
//   msqlbench --workload=NAME --seed=N [--seconds=S] [--trace=FILE|0|1]
//   msqlbench --runs=N [--workload=NAME] --seed=N     spread report
//   msqlbench --smoke [--benchmark-json=FILE]         ctest e2e_bench_smoke
//
// Every flag also takes the "--flag value" form. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is non-zero on any failed operation or wrong result.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_writer.h"
#include "json_read.h"
#include "spans.h"
#include "workloads.h"
#include "yardstick.h"

extern char** environ;

namespace msql::e2e {
namespace {

#ifndef MSQLBENCH_BUILD_TYPE
#define MSQLBENCH_BUILD_TYPE "unknown"
#endif
#ifndef MSQLBENCH_SANITIZED
#define MSQLBENCH_SANITIZED 0
#endif

struct Args {
  std::string workload;
  bool all = false;
  uint64_t seed = 1;
  double seconds = -1;  // -1: 10 s, or 0.2 s under --smoke
  std::string trace;    // "" or "0": untraced; "1": default file; else file
  std::string out;
  std::string out_dir = ".";
  bool smoke = false;
  int runs = 0;
  std::string commit;
  std::string benchmark_json = "BENCHMARK.json";
};

const char* const kUsage =
    "usage: msqlbench (--all | --workload=NAME | --runs=N | --smoke) "
    "[--seed=N] [--seconds=S] [--trace=FILE|0|1] [--out=FILE] "
    "[--out-dir=DIR] [--commit=SHA] [--benchmark-json=FILE]\n";

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--all") {
      a->all = true;
      continue;
    }
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a->trace = value;
    } else if (flag == "--out") {
      a->out = value;
    } else if (flag == "--out-dir") {
      a->out_dir = value;
    } else if (flag == "--runs") {
      a->runs = std::atoi(value.c_str());
    } else if (flag == "--commit") {
      a->commit = value;
    } else if (flag == "--benchmark-json") {
      a->benchmark_json = value;
    } else {
      return false;
    }
  }
  return true;
}

bool Traced(const Args& a) { return !a.trace.empty() && a.trace != "0"; }

std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------- env

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string ResolveCommit(const Args& a) {
  if (!a.commit.empty()) return a.commit;
  if (!std::filesystem::exists(".git")) return "unknown";
  std::string sha;
  if (FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) sha = buf;
    pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == ' ')) sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

// Timings from a debug or sanitizer build say nothing about the code.
bool ValidBuild() {
  const std::string type = MSQLBENCH_BUILD_TYPE;
  return (type == "Release" || type == "RelWithDebInfo") &&
         MSQLBENCH_SANITIZED == 0;
}

std::vector<std::pair<std::string, std::string>> CommonEnv(const Args& a) {
  return {
      {"seed", std::to_string(a.seed)},
      {"seconds", FormatNumber(a.seconds)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", CpuModel()},
      {"build_type", MSQLBENCH_BUILD_TYPE},
      {"sanitized", MSQLBENCH_SANITIZED ? "1" : "0"},
      {"valid", ValidBuild() ? "1" : "0"},
      {"commit", ResolveCommit(a)},
  };
}

// ---------------------------------------------------------------- one run

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// The run's timings, from its untraced rounds. With `at_reference`, every
// wall time is first scaled to the reference speed by the yardstick time of
// its own operation (OpTime), or of its own set-up.
class Timings {
 public:
  Timings(const Outcome& o, bool at_reference)
      : o_(o), at_reference_(at_reference) {}

  // Median over set-ups.
  double SetupS() const {
    std::vector<double> s;
    for (const SetupTime& x : o_.setups) {
      s.push_back(x.seconds * Scale(x.yardstick_ms));
    }
    return Median(std::move(s));
  }

  // Completed operations per second the clients spent waiting on them.
  double Qps() const {
    double completed = 0, ms = 0;
    for (const RoundStats& r : o_.rounds) {
      completed += static_cast<double>(r.completed);
      for (const OpTime& op : r.ops) ms += Ms(op) / r.clients;
    }
    return ms > 0 ? 1000 * completed / ms : 0;
  }

  // The geometric mean over templates of each template's latency quantile
  // `p`. The templates' latencies lie in separate clusters, so a quantile
  // over all of them together jumps between clusters from run to run.
  double ReadMs(OpTime::Kind kind, double p) const {
    std::map<int, std::vector<double>> by_template;
    for (const RoundStats& r : o_.rounds) {
      for (const OpTime& op : r.ops) {
        if (op.kind == kind) by_template[op.tmpl].push_back(Ms(op));
      }
    }
    double log_sum = 0;
    for (auto& [tmpl, ms] : by_template) {
      log_sum += std::log(Percentile(std::move(ms), p));
    }
    return by_template.empty()
               ? 0
               : std::exp(log_sum / static_cast<double>(by_template.size()));
  }

  double WriteMs(double p) const {
    std::vector<double> ms;
    for (const RoundStats& r : o_.rounds) {
      for (const OpTime& op : r.ops) {
        if (op.kind == OpTime::kWrite) ms.push_back(Ms(op));
      }
    }
    return Percentile(std::move(ms), p);
  }

 private:
  double Scale(double yardstick_ms) const {
    return at_reference_ && yardstick_ms > 0
               ? Yardstick::kReferenceMs / yardstick_ms
               : 1;
  }

  double Ms(const OpTime& op) const { return op.ms * Scale(op.yardstick_ms); }

  const Outcome& o_;
  const bool at_reference_;
};

std::vector<Metric> EndToEndMetrics(const Outcome& o) {
  const Timings t(o, true);
  return {
      {"setup_s", t.SetupS(), "s"},
      {"qps", t.Qps(), "ops/s"},
      {"measure_p50_ms", t.ReadMs(OpTime::kMeasure, 0.50), "ms"},
      {"plain_p50_ms", t.ReadMs(OpTime::kPlain, 0.50), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// Reported beside the metrics but not regression-checked: the p90s do not
// repeat within their bound on a shared machine, write latency exists only
// on ingest, correctness is the result line's own field, and the unscaled
// wall times and the yardstick show what the scaling did.
std::vector<Metric> ExtraMetrics(const Outcome& o) {
  size_t samples[3] = {0, 0, 0};
  std::vector<double> yardstick_ms;
  for (const RoundStats& r : o.rounds) {
    for (const OpTime& op : r.ops) {
      ++samples[op.kind];
      yardstick_ms.push_back(op.yardstick_ms);
    }
  }
  const size_t write = samples[OpTime::kWrite];
  const Timings t(o, true);
  const Timings wall(o, false);
  std::vector<Metric> extra = {
      {"measure_p90_ms", t.ReadMs(OpTime::kMeasure, 0.90), "ms"},
      {"plain_p90_ms", t.ReadMs(OpTime::kPlain, 0.90), "ms"},
  };
  if (write > 0) {
    extra.push_back({"write_p50_ms", t.WriteMs(0.50), "ms"});
    extra.push_back({"write_p90_ms", t.WriteMs(0.90), "ms"});
  }
  extra.push_back({"yardstick_ms", Median(yardstick_ms), "ms"});
  extra.push_back({"wall.setup_s", wall.SetupS(), "s"});
  extra.push_back({"wall.qps", wall.Qps(), "ops/s"});
  extra.push_back(
      {"wall.measure_p50_ms", wall.ReadMs(OpTime::kMeasure, 0.50), "ms"});
  extra.push_back(
      {"wall.plain_p50_ms", wall.ReadMs(OpTime::kPlain, 0.50), "ms"});
  extra.push_back(
      {"error_rate",
       o.attempted > 0
           ? static_cast<double>(o.failed + o.mismatched) / o.attempted
           : 0,
       "ratio"});
  extra.push_back({"samples.measure",
                   static_cast<double>(samples[OpTime::kMeasure]), "count"});
  extra.push_back({"samples.plain",
                   static_cast<double>(samples[OpTime::kPlain]), "count"});
  if (write > 0) {
    extra.push_back({"samples.write", static_cast<double>(write), "count"});
  }
  extra.push_back({"rounds", static_cast<double>(o.rounds.size()), "count"});
  return extra;
}

void PrintResultLine(bool correct, int64_t attempted, int64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void WriteMetricsJson(bench::JsonWriter* w, const std::vector<Metric>& ms) {
  w->BeginObject();
  for (const Metric& m : ms) {
    w->Key(m.name);
    w->BeginObject();
    w->Key("value");
    w->Double(m.value);
    w->Key("unit");
    w->String(m.unit);
    w->EndObject();
  }
  w->EndObject();
}

std::string DefaultOut(const Args& a, const std::string& what) {
  return a.out.empty() ? a.out_dir + "/msqlbench-" + what + ".json" : a.out;
}

int RunOne(const Args& a) {
  Config cfg;
  cfg.workload = a.workload;
  cfg.seed = a.seed;
  cfg.seconds = a.seconds;
  cfg.smoke = a.smoke;
  cfg.traced = Traced(a);
  Outcome out;
  if (!RunWorkload(cfg, &out)) {
    std::fprintf(stderr, "msqlbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  auto env = CommonEnv(a);
  env.insert(env.end(), out.env.begin(), out.env.end());
  env.emplace_back("setups", std::to_string(out.setups.size()));
  env.emplace_back("traced", cfg.traced ? "1" : "0");
  const std::vector<Metric> e2e = EndToEndMetrics(out);
  const std::vector<Metric> extra = ExtraMetrics(out);
  const std::vector<Metric> layers =
      cfg.traced ? LayerMetrics(out.trace) : std::vector<Metric>{};
  const bool correct = out.failed == 0 && out.mismatched == 0;
  if (!ValidBuild()) {
    std::fprintf(stderr, "msqlbench: %s build; these numbers are invalid\n",
                 MSQLBENCH_BUILD_TYPE);
  }

  for (const auto& [key, value] : env) {
    std::printf("%s.env.%s %s\n", a.workload.c_str(), key.c_str(),
                value.c_str());
  }
  for (const auto* group : {&e2e, &extra, &layers}) {
    for (const Metric& m : *group) {
      std::printf("%s.%s %.6g %s\n", a.workload.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    }
  }

  if (cfg.traced) {
    const std::string path =
        a.trace == "1" ? a.out_dir + "/msqlbench-trace-" + a.workload + ".json"
                       : a.trace;
    std::ofstream trace_file(path);
    WriteTraceJson(out.trace, a.workload, a.seed, trace_file);
    std::printf("%s.trace_file %s\n", a.workload.c_str(), path.c_str());
  }
  {
    std::ofstream file(DefaultOut(a, a.workload));
    bench::JsonWriter w(file);
    w.BeginObject();
    w.Key("workload");
    w.String(a.workload);
    w.Key("correct");
    w.Bool(correct);
    w.Key("attempted");
    w.Int(out.attempted);
    w.Key("failed");
    w.Int(out.failed);
    w.Key("mismatched");
    w.Int(out.mismatched);
    w.Key("env");
    w.BeginObject();
    for (const auto& [key, value] : env) {
      w.Key(key);
      w.String(value);
    }
    w.EndObject();
    w.Key("metrics");
    WriteMetricsJson(&w, e2e);
    w.Key("extra");
    WriteMetricsJson(&w, extra);
    if (cfg.traced) {
      w.Key("layers");
      WriteMetricsJson(&w, layers);
    }
    w.EndObject();
    file << "\n";
  }
  PrintResultLine(correct, out.attempted, out.failed + out.mismatched,
                  cfg.traced ? layers : e2e);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------- children

struct ChildResult {
  int exit_code = -1;
  std::string output;  // standard output minus the result line
  Json result;         // the parsed result line (kNull if absent)
};

// Runs this binary again with `args` in a fresh process — each workload's
// peak RSS is its own — and collects its standard output.
ChildResult RunChild(const std::vector<std::string>& args) {
  ChildResult child;
  int fds[2];
  if (pipe(fds) != 0) return child;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> full = {"msqlbench"};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : full) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string output;
  char buf[4096];
  ssize_t got = 0;
  while (rc == 0 && (got = read(fds[0], buf, sizeof(buf))) > 0) {
    output.append(buf, static_cast<size_t>(got));
  }
  close(fds[0]);
  if (rc != 0) return child;
  int status = 0;
  waitpid(pid, &status, 0);
  child.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  while (!output.empty() && output.back() == '\n') output.pop_back();
  const size_t last = output.rfind('\n');
  const std::string line =
      last == std::string::npos ? output : output.substr(last + 1);
  if (JsonReader::Parse(line, &child.result)) {
    output.resize(last == std::string::npos ? 0 : last + 1);
  }
  child.output = output;
  return child;
}

std::vector<std::string> ChildArgs(const Args& a, const std::string& workload,
                                   uint64_t seed, bool traced,
                                   const std::string& commit) {
  std::vector<std::string> args = {
      "--workload=" + workload, "--seed=" + std::to_string(seed),
      "--seconds=" + FormatNumber(a.seconds), "--out-dir=" + a.out_dir,
      "--out=" + a.out_dir + "/msqlbench-" + workload + ".json",
      "--commit=" + commit};
  if (traced) args.push_back("--trace=1");
  if (a.smoke) args.push_back("--smoke");
  return args;
}

bool ChildCorrect(const ChildResult& c) {
  const Json* correct = c.result.Get("correct");
  return c.exit_code == 0 && correct != nullptr && correct->boolean;
}

std::vector<Metric> ChildMetrics(const ChildResult& c) {
  std::vector<Metric> metrics;
  if (const Json* ms = c.result.Get("metrics")) {
    for (const auto& [name, m] : ms->object) {
      metrics.push_back({name, m.Get("value")->number, m.Get("unit")->string});
    }
  }
  return metrics;
}

// The result-line fields summed over several children.
struct Totals {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Add(const ChildResult& c) {
    correct = correct && ChildCorrect(c);
    if (const Json* n = c.result.Get("attempted")) attempted += n->number;
    if (const Json* n = c.result.Get("failed")) failed += n->number;
  }
};

int RunAll(const Args& a) {
  const std::string commit = ResolveCommit(a);
  Totals totals;
  std::vector<Metric> metrics;
  std::vector<std::string> files;
  for (const char* w : kWorkloads) {
    ChildResult c = RunChild(ChildArgs(a, w, a.seed, Traced(a), commit));
    std::fputs(c.output.c_str(), stdout);
    totals.Add(c);
    for (Metric& m : ChildMetrics(c)) {
      m.name = std::string(w) + "." + m.name;
      metrics.push_back(std::move(m));
    }
    std::ifstream in(a.out_dir + "/msqlbench-" + w + ".json");
    files.emplace_back(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  std::ofstream file(DefaultOut(a, "all"));
  file << "{\"seed\": " << a.seed << ", \"workloads\": [";
  for (size_t i = 0; i < files.size(); ++i) {
    file << (i > 0 ? ",\n" : "\n") << files[i];
  }
  file << "]}\n";
  PrintResultLine(totals.correct, totals.attempted, totals.failed, metrics);
  return totals.correct ? 0 : 1;
}

// ---------------------------------------------------------------- spread

bool ReadBenchmarkJson(const std::string& path, Json* out) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return JsonReader::Parse(text, out);
}

// Quartiles as Python's statistics.quantiles(values, n=4) gives them (the
// default 'exclusive' method), so the report matches an external check.
std::vector<double> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const int n = static_cast<int>(v.size());
  if (n < 2) return std::vector<double>(3, v.empty() ? 0 : v[0]);
  std::vector<double> q;
  for (int i = 1; i < 4; ++i) {
    int j = i * (n + 1) / 4;
    j = std::clamp(j, 1, n - 1);
    const int delta = i * (n + 1) - j * 4;
    q.push_back((v[j - 1] * (4 - delta) + v[j] * delta) / 4);
  }
  return q;
}

int RunSpread(const Args& a) {
  Json bench;
  std::map<std::string, double> bounds;
  if (ReadBenchmarkJson(a.benchmark_json, &bench)) {
    if (const Json* e2e = bench.Get("end_to_end")) {
      for (const Json& m : e2e->array) {
        bounds[m.Get("name")->string] = m.Get("bound")->number;
      }
    }
  } else {
    std::fprintf(stderr, "msqlbench: cannot read %s; no bounds\n",
                 a.benchmark_json.c_str());
  }
  const std::string commit = ResolveCommit(a);
  std::vector<std::string> workloads;
  if (!a.workload.empty()) {
    workloads.push_back(a.workload);
  } else {
    workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
  }
  Totals totals;
  std::vector<Metric> medians;
  std::ofstream file(DefaultOut(a, "runs"));
  bench::JsonWriter w(file);
  w.BeginObject();
  w.Key("runs");
  w.Int(a.runs);
  w.Key("first_seed");
  w.Int(static_cast<int64_t>(a.seed));
  w.Key("commit");
  w.String(commit);
  w.Key("workloads");
  w.BeginObject();
  for (const std::string& name : workloads) {
    std::map<std::string, std::vector<double>> values;
    std::map<std::string, std::string> units;
    for (int r = 0; r < a.runs; ++r) {
      ChildResult c = RunChild(
          ChildArgs(a, name, a.seed + static_cast<uint64_t>(r), false, commit));
      totals.Add(c);
      for (const Metric& m : ChildMetrics(c)) {
        values[m.name].push_back(m.value);
        units[m.name] = m.unit;
      }
    }
    std::printf("%-10s %-16s %12s %12s %12s %8s %8s %6s  %s\n", name.c_str(),
                "metric", "median", "q1", "q3", "iqr%", "maxdev%", "bound%",
                "flag");
    w.Key(name);
    w.BeginObject();
    for (const auto& [metric, v] : values) {
      const double median = Median(v);
      const std::vector<double> q = Quartiles(v);
      double max_dev = 0;
      for (double x : v) max_dev = std::max(max_dev, std::fabs(x - median));
      const double iqr_pct = median != 0 ? 100 * (q[2] - q[0]) / median : 0;
      const double dev_pct = median != 0 ? 100 * max_dev / median : 0;
      const double bound = bounds.count(metric) ? 100 * bounds[metric] : 0;
      // setup_s is compared across commits by its median only; its spread
      // is reported but not flagged.
      const char* flag = metric == "setup_s"   ? "-"
                         : iqr_pct > bound     ? "OVER-BOUND"
                         : iqr_pct > bound / 3 ? "over-third"
                                               : "ok";
      std::printf("%-10s %-16s %12.6g %12.6g %12.6g %8.2f %8.2f %6.1f  %s\n",
                  name.c_str(), metric.c_str(), median, q[0], q[2], iqr_pct,
                  dev_pct, bound, flag);
      medians.push_back({name + "." + metric, median, units[metric]});
      w.Key(metric);
      w.BeginObject();
      w.Key("values");
      w.BeginArray();
      for (double x : v) w.Double(x);
      w.EndArray();
      w.Key("median");
      w.Double(median);
      w.Key("q1");
      w.Double(q[0]);
      w.Key("q3");
      w.Double(q[2]);
      w.Key("iqr_pct");
      w.Double(iqr_pct);
      w.Key("max_dev_pct");
      w.Double(dev_pct);
      w.Key("bound_pct");
      w.Double(bound);
      w.Key("flag");
      w.String(flag);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  file << "\n";
  PrintResultLine(totals.correct, totals.attempted, totals.failed, medians);
  return totals.correct ? 0 : 1;
}

// ---------------------------------------------------------------- smoke

// Every workload at tiny sizes, untraced and traced: zero failures, and
// every metric BENCHMARK.json names is emitted.
int RunSmoke(const Args& a) {
  Json bench;
  if (!ReadBenchmarkJson(a.benchmark_json, &bench)) {
    std::fprintf(stderr, "msqlbench: cannot read %s\n",
                 a.benchmark_json.c_str());
    return 1;
  }
  std::vector<std::string> problems;
  std::vector<std::string> listed;
  if (const Json* ws = bench.Get("workloads")) {
    for (const Json& wl : ws->array) listed.push_back(wl.Get("name")->string);
  }
  if (listed != std::vector<std::string>(std::begin(kWorkloads),
                                         std::end(kWorkloads))) {
    problems.push_back("BENCHMARK.json workloads differ from msqlbench's");
  }
  const std::string commit = ResolveCommit(a);
  for (const char* w : kWorkloads) {
    for (const bool traced : {false, true}) {
      ChildResult c = RunChild(ChildArgs(a, w, a.seed, traced, commit));
      const std::string run = std::string(w) + (traced ? " traced" : "");
      if (!ChildCorrect(c)) {
        std::fputs(c.output.c_str(), stdout);
        problems.push_back(run + ": failed or wrong results");
        continue;
      }
      const Json* emitted = c.result.Get("metrics");
      const Json* wanted = bench.Get(traced ? "per_layer" : "end_to_end");
      if (wanted == nullptr || emitted == nullptr) {
        problems.push_back(run + ": no metrics");
        continue;
      }
      for (const Json& m : wanted->array) {
        const std::string& name = m.Get("name")->string;
        if (emitted->Get(name) == nullptr) {
          problems.push_back(run + ": metric " + name + " not emitted");
        }
      }
    }
  }
  for (const std::string& p : problems) std::printf("smoke: %s\n", p.c_str());
  std::printf("smoke: %s\n", problems.empty() ? "ok" : "FAILED");
  return problems.empty() ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (a.seconds < 0) a.seconds = a.smoke ? 0.2 : 10;
  std::filesystem::create_directories(a.out_dir);
  if (a.runs > 0) return RunSpread(a);
  if (a.all) return RunAll(a);
  if (!a.workload.empty()) return RunOne(a);
  if (a.smoke) return RunSmoke(a);
  std::fputs(kUsage, stderr);
  return 2;
}

}  // namespace
}  // namespace msql::e2e

int main(int argc, char** argv) { return msql::e2e::Main(argc, argv); }
