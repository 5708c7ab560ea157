#include "testing/case_spec.h"

#include <cstdlib>

#include "common/string_util.h"

namespace msql {
namespace testing {

const char* CheckKindName(CheckKind kind) {
  switch (kind) {
    case CheckKind::kDifferential: return "differential";
    case CheckKind::kEqualPair: return "equal";
    case CheckKind::kTlp: return "tlp";
  }
  return "?";
}

std::string TableSpec::CreateSql() const {
  std::vector<std::string> cols;
  for (const auto& c : columns) cols.push_back(c.name + " " + c.type);
  return StrCat("CREATE TABLE ", name, " (", Join(cols, ", "), ")");
}

std::string TableSpec::InsertSql(size_t begin, size_t end) const {
  if (begin >= end) return "";
  std::vector<std::string> tuples;
  for (size_t i = begin; i < end; ++i) {
    tuples.push_back("(" + Join(rows[i], ", ") + ")");
  }
  return StrCat("INSERT INTO ", name, " VALUES ", Join(tuples, ", "));
}

std::vector<std::string> CaseSpec::SetupStatements() const {
  std::vector<std::string> stmts;
  for (const auto& t : tables) {
    stmts.push_back(t.CreateSql());
    std::string insert = t.InsertSql(0, t.rows.size());
    if (!insert.empty()) stmts.push_back(std::move(insert));
  }
  for (const auto& s : setup) stmts.push_back(s);
  return stmts;
}

void CaseSpec::SplitSetupStatements(std::vector<std::string>* before,
                                    std::vector<std::string>* after) const {
  for (const auto& t : tables) {
    before->push_back(t.CreateSql());
    std::string first = t.InsertSql(0, t.rows.size() / 2);
    if (!first.empty()) before->push_back(std::move(first));
    std::string second = t.InsertSql(t.rows.size() / 2, t.rows.size());
    if (!second.empty()) after->push_back(std::move(second));
  }
  for (const auto& s : setup) before->push_back(s);
}

std::string CaseSpec::ToSql() const {
  std::string out = StrCat("-- msqlcheck case seed=", seed, "\n");
  for (const auto& stmt : SetupStatements()) {
    out += stmt + ";\n";
  }
  for (const auto& check : checks) {
    out += StrCat("-- check: ", CheckKindName(check.kind),
                  check.agg.empty() ? "" : " " + check.agg,
                  check.label.empty() ? "" : "  (" + check.label + ")", "\n");
    for (const auto& q : check.queries) {
      out += q + ";\n";
    }
  }
  return out;
}

namespace {

// Splits a script into ';'-terminated statements, ignoring ';' inside
// single-quoted strings. `--` line comments have already been removed.
std::vector<std::string> SplitStatements(const std::string& text) {
  std::vector<std::string> stmts;
  std::string cur;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '\'') {
      in_string = !in_string;
      cur += c;
    } else if (c == ';' && !in_string) {
      std::string t = Trim(cur);
      if (!t.empty()) stmts.push_back(std::move(t));
      cur.clear();
    } else {
      cur += c;
    }
  }
  std::string t = Trim(cur);
  if (!t.empty()) stmts.push_back(std::move(t));
  return stmts;
}

bool IsSelect(const std::string& stmt) {
  std::string u = ToUpper(stmt);
  return u.rfind("SELECT", 0) == 0 || u.rfind("WITH", 0) == 0;
}

}  // namespace

Result<CaseSpec> ParseScript(const std::string& text) {
  CaseSpec spec;
  // Walk line by line so `-- check:` directives apply to the statements
  // that follow them; strip every other comment.
  std::string pending;          // statement text accumulated so far
  bool have_directive = false;  // a directive check is open
  auto flush = [&](const std::string& chunk) -> Status {
    for (auto& stmt : SplitStatements(chunk)) {
      if (!IsSelect(stmt)) {
        if (have_directive) {
          return Status(ErrorCode::kInvalidArgument,
                        "msqlcheck script: non-SELECT statement inside a "
                        "-- check: section");
        }
        spec.setup.push_back(std::move(stmt));
      } else if (have_directive) {
        spec.checks.back().queries.push_back(std::move(stmt));
      } else {
        Check c;
        c.kind = CheckKind::kDifferential;
        c.queries.push_back(std::move(stmt));
        spec.checks.push_back(std::move(c));
      }
    }
    return Status::Ok();
  };

  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string line = text.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;

    std::string trimmed = Trim(line);
    if (trimmed.rfind("--", 0) == 0) {
      std::string directive = Trim(trimmed.substr(2));
      if (directive.rfind("msqlcheck case seed=", 0) == 0) {
        // Header written by ToSql(); restores the originating seed so a
        // replayed repro reports under the same identity.
        spec.seed = std::strtoull(
            directive.c_str() + sizeof("msqlcheck case seed=") - 1, nullptr,
            10);
        continue;
      }
      if (directive.rfind("check:", 0) == 0) {
        // Close the running statement region, then open the new check.
        MSQL_RETURN_IF_ERROR(flush(pending));
        pending.clear();
        std::vector<std::string> words =
            Split(Trim(directive.substr(6)), ' ');
        Check c;
        std::string kind = words.empty() ? "" : ToLower(words[0]);
        if (kind == "differential") {
          c.kind = CheckKind::kDifferential;
        } else if (kind == "equal") {
          c.kind = CheckKind::kEqualPair;
        } else if (kind == "tlp") {
          c.kind = CheckKind::kTlp;
          if (words.size() < 2) {
            return Status(ErrorCode::kInvalidArgument,
                          "msqlcheck script: tlp directive needs an "
                          "aggregate name");
          }
          c.agg = ToUpper(words[1]);
        } else {
          return Status(ErrorCode::kInvalidArgument,
                        "msqlcheck script: unknown check kind '" + kind + "'");
        }
        spec.checks.push_back(std::move(c));
        have_directive = true;
      }
      continue;  // drop all comment lines
    }
    pending += line;
    pending += "\n";
  }
  MSQL_RETURN_IF_ERROR(flush(pending));

  for (const auto& c : spec.checks) {
    if (c.kind == CheckKind::kEqualPair && c.queries.size() != 2) {
      return Status(ErrorCode::kInvalidArgument,
                    "msqlcheck script: 'equal' check needs exactly 2 queries");
    }
    if (c.kind == CheckKind::kTlp && c.queries.size() != 4) {
      return Status(ErrorCode::kInvalidArgument,
                    "msqlcheck script: 'tlp' check needs exactly 4 queries");
    }
  }
  return spec;
}

}  // namespace testing
}  // namespace msql
