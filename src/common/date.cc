#include "common/date.h"

#include <cstdio>

namespace msql {

int64_t DaysFromCivil(int64_t y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);             // [0, 399]
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;   // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;            // [0, 146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int64_t* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);  // [0, 146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;     // [0, 399]
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                       // [0, 11]
  *d = doy - (153 * mp + 2) / 5 + 1;                             // [1, 31]
  *m = mp + (mp < 10 ? 3 : -9);                                  // [1, 12]
  *y = yy + (*m <= 2);
}

int64_t YearOfDate(int64_t days) {
  if (days >= kFastYearFirstDay && days < kFastYearEndDay) {
    // Neri & Schneider, "Euclidean affine functions and their application
    // to calendar algorithms" (2022), in 32-bit arithmetic. n counts days
    // from 0000-03-01, so every day of the range is non-negative and 4n + 3
    // fits in 32 bits. c is the century of the March-based year, z the
    // year within it, and doy the day of that year (>= 306: January or
    // February, which belong to the next civil year).
    const uint32_t n = static_cast<uint32_t>(days + 719468);
    const uint32_t n1 = 4 * n + 3;
    const uint32_t c = n1 / 146097;
    const uint32_t n2 = n1 % 146097 | 3;
    const uint64_t p2 = uint64_t{2939745} * n2;
    const uint32_t z = static_cast<uint32_t>(p2 >> 32);
    const uint32_t doy = static_cast<uint32_t>(p2) / 2939745 / 4;
    return static_cast<int64_t>(100 * c + z + (doy >= 306));
  }
  int64_t y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return y;
}

int64_t MonthOfDate(int64_t days) {
  int64_t y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return m;
}

int64_t DayOfDate(int64_t days) {
  int64_t y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return d;
}

int64_t QuarterOfDate(int64_t days) { return (MonthOfDate(days) - 1) / 3 + 1; }

int64_t DayOfWeek(int64_t days) {
  // 1970-01-01 was a Thursday. SQL convention: 1 = Sunday .. 7 = Saturday.
  int64_t dow = (days % 7 + 7 + 4) % 7;  // 0 = Sunday
  return dow + 1;
}

Result<int64_t> ParseDate(const std::string& text) {
  int y = 0, m = 0, d = 0;
  char sep1 = 0, sep2 = 0;
  int consumed = 0;
  if (std::sscanf(text.c_str(), "%d%c%d%c%d%n", &y, &sep1, &m, &sep2, &d,
                  &consumed) != 5 ||
      consumed != static_cast<int>(text.size()) || sep1 != sep2 ||
      (sep1 != '-' && sep1 != '/')) {
    return Status(ErrorCode::kInvalidArgument,
                  "cannot parse date literal '" + text + "'");
  }
  if (m < 1 || m > 12 || d < 1 || d > 31) {
    return Status(ErrorCode::kInvalidArgument,
                  "date field out of range in '" + text + "'");
  }
  // Round-trip to reject dates like Feb 30.
  int64_t days = DaysFromCivil(y, m, d);
  int64_t y2;
  unsigned m2, d2;
  CivilFromDays(days, &y2, &m2, &d2);
  if (y2 != y || m2 != static_cast<unsigned>(m) ||
      d2 != static_cast<unsigned>(d)) {
    return Status(ErrorCode::kInvalidArgument,
                  "invalid calendar date '" + text + "'");
  }
  return days;
}

std::string FormatDate(int64_t days) {
  int64_t y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04lld-%02u-%02u",
                static_cast<long long>(y), m, d);
  return buf;
}

}  // namespace msql
