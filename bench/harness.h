#ifndef MSQL_BENCH_HARNESS_H_
#define MSQL_BENCH_HARNESS_H_

// The harness every bench under bench/ is built on. A bench declares its
// workload sizes, groups the configurations it compares into the legs of a
// Comparison, and the harness
//
//   - parses the flags: --smoke, --rounds=N and --<size>=V for each
//     settable size; any other argument prints the usage and exits 2;
//   - runs a comparison's legs round-robin, rotating which leg goes first
//     each round, so machine-wide drift (CPU frequency, noisy neighbours)
//     spreads over every leg instead of biasing whichever runs last;
//   - summarizes each leg's per-round values, and each paired ratio's
//     per-round ratios, as median, q1 and q3. Rounds are paired in time,
//     so a ratio's median cancels drift that a ratio of medians carries;
//   - writes BENCH_<name>.json with an env block (build type, nproc, CPU
//     model, workload sizes). A --smoke run writes BENCH_<name>.smoke.json
//     instead, so it never overwrites a committed full result;
//   - exits 1 when a correctness check failed (every run) or a gate failed
//     (full runs only: smoke runs are too short to gate on).
//
//   Harness h("example", argc, argv, /*rounds=*/7, /*smoke_rounds=*/2,
//             {{"rows", 100000, 2000}});
//   Comparison& c = h.Compare("cold", "qps");
//   c.Add("naive", [&](Leg&) { ...; return qps; });
//   c.Add("grouped", [&](Leg& leg) { leg.Counter("scans", n); return qps; });
//   c.Run(h.rounds());
//   h.Gate("grouped/naive >= 5", c.Ratio("speedup", "grouped", "naive")
//                                    .median >= 5.0);
//   return h.Finish();

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "json_writer.h"

#ifndef MSQL_BENCH_BUILD_TYPE
#define MSQL_BENCH_BUILD_TYPE "unknown"
#endif

namespace msql::bench {

// The value at rank p * (n - 1) of `v`, interpolated linearly between its
// neighbours; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
};

inline Summary Summarize(const std::vector<double>& v) {
  return {Quantile(v, 0.5), Quantile(v, 0.25), Quantile(v, 0.75)};
}

// Seconds `fn` takes to run once.
template <typename Fn>
double SecondsOf(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

// A workload size: its full-run value and its cap under --smoke. A
// settable size also takes --<name>=<value>.
struct Size {
  std::string name;
  double full;
  double smoke;
  bool settable = true;
  double value = 0;  // resolved by the Harness
};

// One configuration a comparison times. `run` does one round's work and
// returns the round's value in the comparison's unit; it may record
// counters (scan counts, latency percentiles, ...) on its leg, and the
// last round's counters are the ones reported.
struct Leg {
  std::string name;
  std::function<double(Leg&)> run;
  std::vector<double> values;  // one per round
  std::vector<std::pair<std::string, double>> counters;

  void Counter(const std::string& key, double v) {
    for (auto& [k, old] : counters) {
      if (k == key) {
        old = v;
        return;
      }
    }
    counters.emplace_back(key, v);
  }
};

// Legs timed against each other on the same workload.
class Comparison {
 public:
  Comparison(std::string name, std::string unit)
      : name_(std::move(name)), unit_(std::move(unit)) {}

  void Add(std::string leg, std::function<double(Leg&)> run) {
    legs_.push_back(Leg{std::move(leg), std::move(run), {}, {}});
  }

  // Runs `rounds` rounds of every leg; round r starts at leg r mod #legs.
  // Then drops the legs' callables, which may refer to workload state the
  // bench frees after this call, and prints each leg's summary.
  void Run(int rounds) {
    const size_t n = legs_.size();
    for (int r = 0; r < rounds; ++r) {
      for (size_t i = 0; i < n; ++i) {
        Leg& leg = legs_[(static_cast<size_t>(r) + i) % n];
        leg.values.push_back(leg.run(leg));
      }
    }
    for (Leg& leg : legs_) leg.run = nullptr;
    std::printf("%s (%s: median [q1 - q3] over %d rounds)\n", name_.c_str(),
                unit_.c_str(), rounds);
    for (const Leg& leg : legs_) {
      const Summary s = Summarize(leg.values);
      std::printf("  %-24s %12.4g [%.4g - %.4g]", leg.name.c_str(), s.median,
                  s.q1, s.q3);
      for (const auto& [k, v] : leg.counters) {
        std::printf(" %s=%g", k.c_str(), v);
      }
      std::printf("\n");
    }
  }

  // Summarizes the per-round ratios num/den of two legs (rounds where den
  // read 0 are left out), records them for the JSON and prints them.
  Summary Ratio(const std::string& name, const std::string& num,
                const std::string& den) {
    const Leg& a = leg(num);
    const Leg& b = leg(den);
    std::vector<double> ratios;
    for (size_t r = 0; r < a.values.size() && r < b.values.size(); ++r) {
      if (b.values[r] != 0) ratios.push_back(a.values[r] / b.values[r]);
    }
    const Summary s = Summarize(ratios);
    ratios_.push_back({name, num, den, s});
    std::printf("  %s = %s / %s, paired: %.4g [%.4g - %.4g]\n", name.c_str(),
                num.c_str(), den.c_str(), s.median, s.q1, s.q3);
    return s;
  }

  void Write(JsonWriter* w) const {
    w->BeginObject();
    w->Key("name");
    w->String(name_);
    w->Key("unit");
    w->String(unit_);
    w->Key("legs");
    w->BeginArray();
    for (const Leg& leg : legs_) {
      w->BeginObject();
      w->Key("name");
      w->String(leg.name);
      WriteSummary(w, Summarize(leg.values));
      w->Key("rounds");
      w->BeginArray();
      for (double v : leg.values) w->Double(v);
      w->EndArray();
      w->Key("counters");
      w->BeginObject();
      for (const auto& [k, v] : leg.counters) {
        w->Key(k);
        w->Double(v);
      }
      w->EndObject();
      w->EndObject();
    }
    w->EndArray();
    w->Key("ratios");
    w->BeginArray();
    for (const PairedRatio& r : ratios_) {
      w->BeginObject();
      w->Key("name");
      w->String(r.name);
      w->Key("num");
      w->String(r.num);
      w->Key("den");
      w->String(r.den);
      WriteSummary(w, r.summary);
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  }

 private:
  struct PairedRatio {
    std::string name;
    std::string num;
    std::string den;
    Summary summary;
  };

  const Leg& leg(const std::string& name) const {
    for (const Leg& leg : legs_) {
      if (leg.name == name) return leg;
    }
    std::fprintf(stderr, "%s: no leg named %s\n", name_.c_str(),
                 name.c_str());
    std::abort();
  }

  static void WriteSummary(JsonWriter* w, const Summary& s) {
    w->Key("median");
    w->Double(s.median);
    w->Key("q1");
    w->Double(s.q1);
    w->Key("q3");
    w->Double(s.q3);
  }

  std::string name_;
  std::string unit_;
  std::vector<Leg> legs_;
  std::vector<PairedRatio> ratios_;
};

class Harness {
 public:
  Harness(std::string name, int argc, char** argv, int rounds,
          int smoke_rounds, std::vector<Size> sizes = {})
      : name_(std::move(name)), argv0_(argv[0]), sizes_(std::move(sizes)) {
    int given_rounds = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        smoke_ = true;
      } else if (arg.rfind("--rounds=", 0) == 0) {
        const double v = ParsePositive(arg, arg.substr(9));
        if (v != std::floor(v)) Usage("--rounds takes a whole number");
        given_rounds = static_cast<int>(v);
      } else if (!SetSize(arg)) {
        Usage("unknown argument " + arg);
      }
    }
    rounds_ = given_rounds > 0 ? given_rounds : smoke_ ? smoke_rounds : rounds;
    for (Size& s : sizes_) {
      if (s.value == 0) s.value = s.full;
      if (smoke_) s.value = std::min(s.value, s.smoke);
    }
  }

  int rounds() const { return rounds_; }

  double size(const std::string& name) const {
    for (const Size& s : sizes_) {
      if (s.name == name) return s.value;
    }
    std::fprintf(stderr, "%s: no size named %s\n", name_.c_str(),
                 name.c_str());
    std::abort();
  }

  // The sizes a sweep runs: all of them, or the first under --smoke.
  template <typename T, size_t N>
  std::span<const T> Sweep(const T (&sizes)[N]) const {
    return std::span<const T>(sizes, smoke_ ? 1 : N);
  }

  Comparison& Compare(std::string name, std::string unit) {
    return comparisons_.emplace_back(std::move(name), std::move(unit));
  }

  // A correctness check: a failure fails every run.
  void Check(const std::string& what, bool ok) {
    checks_.push_back({what, ok});
    std::printf("check %s: %s\n", what.c_str(), ok ? "ok" : "FAILED");
  }

  // A performance gate: a failure fails full runs only.
  void Gate(const std::string& what, bool ok) {
    gates_.push_back({what, ok});
    std::printf("gate %s: %s%s\n", what.c_str(), ok ? "ok" : "FAILED",
                smoke_ ? " (not enforced under --smoke)" : "");
  }

  // Writes the result file and returns the process exit code.
  int Finish() const {
    const std::string path =
        "BENCH_" + name_ + (smoke_ ? ".smoke.json" : ".json");
    std::ofstream out(path);
    JsonWriter w(out);
    w.BeginObject();
    w.Key("bench");
    w.String(name_);
    w.Key("smoke");
    w.Bool(smoke_);
    w.Key("rounds");
    w.Int(rounds_);
    w.Key("env");
    w.BeginObject();
    w.Key("build_type");
    w.String(MSQL_BENCH_BUILD_TYPE);
    w.Key("nproc");
    w.String(std::to_string(std::thread::hardware_concurrency()));
    w.Key("cpu");
    w.String(CpuModel());
    for (const Size& s : sizes_) {
      w.Key(s.name);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", s.value);
      w.String(buf);
    }
    w.EndObject();
    w.Key("comparisons");
    w.BeginArray();
    for (const Comparison& c : comparisons_) c.Write(&w);
    w.EndArray();
    bool ok = true;
    auto write_outcomes = [&](const char* key, const Outcomes& outcomes,
                              bool enforced) {
      w.Key(key);
      w.BeginObject();
      for (const auto& [what, passed] : outcomes) {
        w.Key(what);
        w.Bool(passed);
        ok = ok && (passed || !enforced);
      }
      w.EndObject();
    };
    write_outcomes("checks", checks_, /*enforced=*/true);
    write_outcomes("gates", gates_, /*enforced=*/!smoke_);
    w.EndObject();
    out << "\n";
    out.close();
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", name_.c_str(),
                   path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    if (!ok) {
      std::fprintf(stderr, "%s: a check or gate FAILED\n", name_.c_str());
    }
    return ok ? 0 : 1;
  }

 private:
  [[noreturn]] void Usage(const std::string& error) const {
    std::fprintf(stderr, "%s: %s\nusage: %s [--smoke] [--rounds=N]",
                 argv0_.c_str(), error.c_str(), argv0_.c_str());
    for (const Size& s : sizes_) {
      if (s.settable) {
        std::fprintf(stderr, " [--%s=%g]", s.name.c_str(), s.full);
      }
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  double ParsePositive(const std::string& arg, const std::string& text) const {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(v > 0) || v > 1e9) {
      Usage("bad value in " + arg);
    }
    return v;
  }

  bool SetSize(const std::string& arg) {
    for (Size& s : sizes_) {
      const std::string prefix = "--" + s.name + "=";
      if (s.settable && arg.rfind(prefix, 0) == 0) {
        s.value = ParsePositive(arg, arg.substr(prefix.size()));
        return true;
      }
    }
    return false;
  }

  static std::string CpuModel() {
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

  std::string name_;
  std::string argv0_;
  std::vector<Size> sizes_;
  bool smoke_ = false;
  int rounds_ = 1;
  std::deque<Comparison> comparisons_;  // stable references for callers
  using Outcomes = std::vector<std::pair<std::string, bool>>;
  Outcomes checks_;
  Outcomes gates_;
};

}  // namespace msql::bench

#endif  // MSQL_BENCH_HARNESS_H_
