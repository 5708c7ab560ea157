#include "testing/harness.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/string_util.h"

namespace msql {
namespace testing {

namespace {

// Minimizes a failing case while `still_fails` holds (when shrinking is
// on), renders it as the report's repro and writes it to repro_dir.
void EmitRepro(CaseSpec spec, const FailPredicate& still_fails,
               const HarnessOptions& options, SeedReport* report) {
  if (options.shrink_failures) {
    spec = Shrink(std::move(spec), still_fails, options.shrink_budget,
                  &report->shrink_stats);
  }
  report->repro_sql = spec.ToSql();
  if (options.repro_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(options.repro_dir, ec);
  std::filesystem::path path =
      std::filesystem::path(options.repro_dir) /
      StrCat("seed_", std::to_string(report->seed), ".sql");
  std::ofstream out(path);
  if (out) {
    out << report->repro_sql;
    report->repro_path = path.string();
  }
}

// Runs `body` in a forked child and returns what it produced. *crash says
// how the child died ("" when it returned normally). Where no child can be
// started, `body` runs in this process.
std::string RunInChild(const std::function<std::string()>& body,
                       std::string* crash) {
  crash->clear();
  int fds[2];
  if (pipe(fds) != 0) return body();
  std::fflush(nullptr);  // a child must not repeat buffered output
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return body();
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string out = body();
    for (size_t done = 0; done < out.size();) {
      const ssize_t w = write(fds[1], out.data() + done, out.size() - done);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) _exit(3);
      done += static_cast<size_t>(w);
    }
    // exit, not _exit: a --coverage build writes the child's counters at
    // exit, so the coverage gate still counts what the seeds run.
    std::exit(0);
  }
  close(fds[1]);
  std::string data;
  char buf[1 << 14];
  for (;;) {
    const ssize_t r = read(fds[0], buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    data.append(buf, static_cast<size_t>(r));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status)) {
    *crash = StrCat("signal ", WTERMSIG(status), " (",
                    strsignal(WTERMSIG(status)), ")");
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *crash = StrCat("exit status ", WEXITSTATUS(status));
  }
  return data;
}

// A SeedReport through the child's pipe: numbers as decimal lines,
// strings as a length line followed by the bytes.
void PutNum(std::string* out, int64_t v) { out->append(StrCat(v, "\n")); }
void PutStr(std::string* out, const std::string& s) {
  PutNum(out, static_cast<int64_t>(s.size()));
  out->append(s);
}

std::string EncodeReport(const SeedReport& r) {
  std::string out;
  PutNum(&out, r.outcome.queries_run);
  PutNum(&out, r.outcome.expansion_skips);
  PutNum(&out, r.outcome.setup_failed ? 1 : 0);
  PutNum(&out, static_cast<int64_t>(r.outcome.failures.size()));
  for (const CheckFailure& f : r.outcome.failures) {
    PutNum(&out, static_cast<int64_t>(f.check_index));
    PutStr(&out, f.label);
    PutStr(&out, f.detail);
  }
  PutStr(&out, r.repro_sql);
  PutStr(&out, r.repro_path);
  PutNum(&out, r.shrink_stats.predicate_calls);
  PutNum(&out, r.shrink_stats.accepted_edits);
  return out;
}

class ReportReader {
 public:
  explicit ReportReader(const std::string& data) : data_(data) {}

  int64_t Num() {
    const size_t nl = data_.find('\n', pos_);
    if (nl == std::string::npos) {
      ok_ = false;
      return 0;
    }
    const int64_t v = std::strtoll(data_.c_str() + pos_, nullptr, 10);
    pos_ = nl + 1;
    return v;
  }
  std::string Str() {
    const int64_t len = Num();
    if (!ok_ || len < 0 || static_cast<size_t>(len) > data_.size() - pos_) {
      ok_ = false;
      return "";
    }
    std::string s = data_.substr(pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return s;
  }
  bool ok() const { return ok_; }
  // Everything read, nothing left over.
  bool done() const { return ok_ && pos_ == data_.size(); }

 private:
  const std::string& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

bool DecodeReport(const std::string& data, SeedReport* r) {
  ReportReader in(data);
  r->outcome.queries_run = static_cast<int>(in.Num());
  r->outcome.expansion_skips = static_cast<int>(in.Num());
  r->outcome.setup_failed = in.Num() != 0;
  const int64_t failures = in.Num();
  for (int64_t i = 0; i < failures && in.ok(); ++i) {
    CheckFailure f;
    f.check_index = static_cast<size_t>(in.Num());
    f.label = in.Str();
    f.detail = in.Str();
    r->outcome.failures.push_back(std::move(f));
  }
  r->repro_sql = in.Str();
  r->repro_path = in.Str();
  r->shrink_stats.predicate_calls = static_cast<int>(in.Num());
  r->shrink_stats.accepted_edits = static_cast<int>(in.Num());
  return in.done();
}

// RunSeed in a child. A child that dies leaves a `crash` failure and the
// seed's generated case, shrunk to a candidate that still crashes.
SeedReport RunSeedInChild(uint64_t seed, const HarnessOptions& options) {
  std::string crash;
  const std::string data = RunInChild(
      [&] { return EncodeReport(RunSeed(seed, options)); }, &crash);
  SeedReport report;
  report.seed = seed;
  if (crash.empty() && DecodeReport(data, &report)) return report;
  if (crash.empty()) crash = "a truncated report";
  report = SeedReport{};
  report.seed = seed;
  report.outcome.failures.push_back(
      {0, "crash", StrCat("the seed's run died: ", crash)});
  auto still_crashes = [&](const CaseSpec& cand) {
    std::string how;
    RunInChild(
        [&] {
          options.run_case(cand, options.oracle);
          return std::string();
        },
        &how);
    return !how.empty();
  };
  EmitRepro(GenerateCase(seed, options.generator), still_crashes, options,
            &report);
  return report;
}

}  // namespace

SeedReport RunSeed(uint64_t seed, const HarnessOptions& options) {
  SeedReport report;
  report.seed = seed;

  CaseSpec spec = GenerateCase(seed, options.generator);
  report.outcome = options.run_case(spec, options.oracle);
  if (report.outcome.ok()) return report;

  // A candidate whose setup no longer runs is a different (uninteresting)
  // failure, not a smaller instance of this one.
  auto still_fails = [&](const CaseSpec& cand) {
    CaseOutcome o = options.run_case(cand, options.oracle);
    return !o.ok() && !o.setup_failed;
  };
  EmitRepro(std::move(spec), still_fails, options, &report);
  return report;
}

RunSummary RunSeeds(uint64_t first_seed, int count,
                    const HarnessOptions& options, std::ostream* progress) {
  RunSummary summary;
  for (int i = 0; i < count; ++i) {
    const uint64_t seed = first_seed + static_cast<uint64_t>(i);
    SeedReport report = RunSeedInChild(seed, options);
    ++summary.seeds_run;
    summary.queries_run += report.outcome.queries_run;
    summary.expansion_skips += report.outcome.expansion_skips;
    if (!report.ok()) {
      ++summary.seeds_failed;
      if (progress != nullptr) {
        *progress << "FAIL seed " << seed << " ("
                  << report.outcome.failures.size() << " failure"
                  << (report.outcome.failures.size() == 1 ? "" : "s");
        if (!report.repro_path.empty()) {
          *progress << ", repro: " << report.repro_path;
        }
        *progress << ")\n";
        for (const CheckFailure& f : report.outcome.failures) {
          *progress << "  [" << f.label << "] " << f.detail << "\n";
        }
      }
      summary.failures.push_back(std::move(report));
    } else if (progress != nullptr && (i + 1) % 50 == 0) {
      *progress << ".. " << (i + 1) << "/" << count << " seeds, "
                << summary.queries_run << " queries, "
                << summary.seeds_failed << " failed\n";
    }
  }
  return summary;
}

Result<CaseOutcome> ReplayScript(const std::string& text,
                                 const OracleOptions& options) {
  auto spec = ParseScript(text);
  MSQL_RETURN_IF_ERROR(spec.status());
  return RunCase(spec.value(), options);
}

Result<CaseOutcome> ReplayScriptFile(const std::string& path,
                                     const OracleOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status(ErrorCode::kIo, StrCat("cannot open script: ", path));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ReplayScript(buf.str(), options);
}

}  // namespace testing
}  // namespace msql
