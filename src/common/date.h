#ifndef MSQL_COMMON_DATE_H_
#define MSQL_COMMON_DATE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace msql {

// Calendar support for the DATE type. Dates are stored as the number of days
// since the Unix epoch (1970-01-01) in the proleptic Gregorian calendar.
// The conversions use Howard Hinnant's public-domain civil-date algorithms.

// Days since epoch for a civil (year, month, day) triple.
int64_t DaysFromCivil(int64_t y, unsigned m, unsigned d);

// Inverse of DaysFromCivil.
void CivilFromDays(int64_t days, int64_t* y, unsigned* m, unsigned* d);

// Extraction helpers on day counts. YearOfDate takes a 32-bit shortcut on
// [kFastYearFirstDay, kFastYearEndDay), 0001-01-01 up to 10000-01-01, and
// CivilFromDays outside it; both give the same year.
inline constexpr int64_t kFastYearFirstDay = -719162;
inline constexpr int64_t kFastYearEndDay = 2932897;
int64_t YearOfDate(int64_t days);
int64_t MonthOfDate(int64_t days);     // 1..12
int64_t DayOfDate(int64_t days);       // 1..31
int64_t QuarterOfDate(int64_t days);   // 1..4
int64_t DayOfWeek(int64_t days);       // 1 = Sunday .. 7 = Saturday (SQL style)

// Parses 'YYYY-MM-DD' or 'YYYY/MM/DD'. Rejects out-of-range fields.
Result<int64_t> ParseDate(const std::string& text);

// Formats as 'YYYY-MM-DD'.
std::string FormatDate(int64_t days);

}  // namespace msql

#endif  // MSQL_COMMON_DATE_H_
