//! [`Day`]: a calendar day, as a count of days since the Unix epoch.
//!
//! The census operates on "log processed dates" at one-day granularity
//! (§4.1) — a full time library would be overkill, and the paper's
//! analyses need only day arithmetic, ordering, and calendar round-trips.
//! Civil-calendar conversion uses the standard days-from-civil algorithm
//! (Howard Hinnant's public-domain derivation), valid across the proleptic
//! Gregorian calendar.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A calendar day: days since 1970-01-01 (which is `Day(0)`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Day(pub i32);

impl Day {
    /// Builds a day from a Gregorian calendar date.
    ///
    /// # Panics
    /// Panics if the month or day are out of range for the given month
    /// (leap years honoured).
    pub fn from_ymd(year: i32, month: u8, day: u8) -> Day {
        assert!((1..=12).contains(&month), "month {month} out of range");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "day {day} out of range for {year}-{month:02}"
        );
        // days_from_civil (Hinnant): era-based conversion.
        let y = if month <= 2 { year - 1 } else { year } as i64;
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = month as i64;
        let d = day as i64;
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        Day((era * 146097 + doe - 719468) as i32)
    }

    /// Parses exactly `YYYY-MM-DD` (ASCII digits, zero-padded), checking
    /// the real month length with leap years honoured, so an impossible
    /// date such as `2015-02-30` is `None` rather than a
    /// [`Day::from_ymd`] panic. This is the one date reader: file names,
    /// log headers, checkpoints, journals and date flags all use it.
    pub fn parse_ymd(s: &str) -> Option<Day> {
        let &[y0, y1, y2, y3, b'-', m0, m1, b'-', d0, d1] = s.as_bytes() else {
            return None;
        };
        let num = |digits: &[u8]| {
            digits.iter().try_fold(0u16, |acc, &c| {
                c.is_ascii_digit().then(|| acc * 10 + u16::from(c - b'0'))
            })
        };
        let year = i32::from(num(&[y0, y1, y2, y3])?);
        let month = u8::try_from(num(&[m0, m1])?).ok()?;
        let day = u8::try_from(num(&[d0, d1])?).ok()?;
        let valid = (1..=12).contains(&month) && day >= 1 && day <= days_in_month(year, month);
        valid.then(|| Day::from_ymd(year, month, day))
    }

    /// Returns `(year, month, day)` in the Gregorian calendar.
    pub fn to_ymd(self) -> (i32, u8, u8) {
        // civil_from_days (Hinnant).
        let z = self.0 as i64 + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
        ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
    }

    /// The year.
    pub fn year(self) -> i32 {
        self.to_ymd().0
    }

    /// The month (1..=12).
    pub fn month(self) -> u8 {
        self.to_ymd().1
    }

    /// The day of month (1..=31).
    pub fn day_of_month(self) -> u8 {
        self.to_ymd().2
    }

    /// Short month-day label in the style of the paper's Figure 4 axis,
    /// e.g. `Mar-17`.
    pub fn md_label(self) -> String {
        let (_, m, d) = self.to_ymd();
        format!("{}-{:02}", MONTH_ABBR[m as usize - 1], d)
    }

    /// Paper-style date label, e.g. `Mar 17, 2015` (Table 1 headers).
    pub fn paper_label(self) -> String {
        let (y, m, d) = self.to_ymd();
        format!("{} {}, {}", MONTH_ABBR[m as usize - 1], d, y)
    }

    /// An inclusive iterator over `self..=last`.
    pub fn range_inclusive(self, last: Day) -> impl Iterator<Item = Day> {
        (self.0..=last.0).map(Day)
    }
}

const MONTH_ABBR: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        4 | 6 | 9 | 11 => 30,
        2 if is_leap(year) => 29,
        2 => 28,
        // 1/3/5/7/8/10/12 — and, defensively, any out-of-range month the
        // callers' validation should have rejected.
        _ => 31,
    }
}

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

impl Add<i32> for Day {
    type Output = Day;
    fn add(self, rhs: i32) -> Day {
        Day(self.0 + rhs)
    }
}

impl AddAssign<i32> for Day {
    fn add_assign(&mut self, rhs: i32) {
        self.0 += rhs;
    }
}

impl Sub<i32> for Day {
    type Output = Day;
    fn sub(self, rhs: i32) -> Day {
        Day(self.0 - rhs)
    }
}

impl SubAssign<i32> for Day {
    fn sub_assign(&mut self, rhs: i32) {
        self.0 -= rhs;
    }
}

impl Sub<Day> for Day {
    type Output = i32;
    /// Signed distance in days.
    fn sub(self, rhs: Day) -> i32 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Day {
    /// ISO 8601 date, e.g. `2015-03-17`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Day::from_ymd(1970, 1, 1), Day(0));
        assert_eq!(Day(0).to_ymd(), (1970, 1, 1));
    }

    #[test]
    fn paper_dates() {
        let mar17_2015 = Day::from_ymd(2015, 3, 17);
        let sep17_2014 = Day::from_ymd(2014, 9, 17);
        let mar17_2014 = Day::from_ymd(2014, 3, 17);
        assert_eq!(mar17_2015 - sep17_2014, 181);
        assert_eq!(mar17_2015 - mar17_2014, 365);
        assert_eq!(mar17_2015.paper_label(), "Mar 17, 2015");
        assert_eq!(mar17_2015.md_label(), "Mar-17");
        assert_eq!(mar17_2015.to_string(), "2015-03-17");
    }

    #[test]
    fn roundtrip_across_years() {
        for day in [-1000, -1, 0, 1, 59, 60, 365, 16000, 16500, 20000] {
            let d = Day(day);
            let (y, m, dd) = d.to_ymd();
            assert_eq!(Day::from_ymd(y, m, dd), d, "roundtrip failed for {day}");
        }
    }

    #[test]
    fn leap_years() {
        assert_eq!(Day::from_ymd(2016, 2, 29) - Day::from_ymd(2016, 2, 28), 1);
        assert_eq!(Day::from_ymd(2016, 3, 1) - Day::from_ymd(2016, 2, 29), 1);
        assert!(is_leap(2000));
        assert!(!is_leap(1900));
        assert!(is_leap(2016));
        assert!(!is_leap(2015));
    }

    #[test]
    #[should_panic(expected = "day 29 out of range")]
    fn rejects_bad_feb() {
        Day::from_ymd(2015, 2, 29);
    }

    #[test]
    fn parse_ymd_checks_the_calendar() {
        assert_eq!(
            Day::parse_ymd("2015-03-17"),
            Some(Day::from_ymd(2015, 3, 17))
        );
        assert_eq!(
            Day::parse_ymd("2016-02-29"),
            Some(Day::from_ymd(2016, 2, 29))
        );
        assert_eq!(
            Day::parse_ymd("2000-02-29"),
            Some(Day::from_ymd(2000, 2, 29))
        );
        assert_eq!(
            Day::parse_ymd("2015-12-31"),
            Some(Day::from_ymd(2015, 12, 31))
        );
        for bad in [
            "2015-02-29",
            "2015-02-30",
            "1900-02-29",
            "2015-04-31",
            "2015-13-01",
            "2015-00-10",
            "2015-03-00",
            "2015-3-7",
            "2015-03-7",
            "2015/03/17",
            "+201-03-17",
            "2015-+3-17",
            "2015-03-17.log",
            "20150317",
            "",
        ] {
            assert_eq!(Day::parse_ymd(bad), None, "{bad:?}");
        }
        for day in [-1000, 0, 16000, 16876, 20000] {
            assert_eq!(Day::parse_ymd(&Day(day).to_string()), Some(Day(day)));
        }
    }

    #[test]
    fn arithmetic() {
        let d = Day::from_ymd(2015, 3, 17);
        assert_eq!((d + 7).to_ymd(), (2015, 3, 24));
        assert_eq!((d - 7).to_ymd(), (2015, 3, 10));
        let mut e = d;
        e += 1;
        assert_eq!(e.to_ymd(), (2015, 3, 18));
        e -= 2;
        assert_eq!(e.to_ymd(), (2015, 3, 16));
        assert_eq!(
            d.range_inclusive(d + 2).collect::<Vec<_>>(),
            vec![d, d + 1, d + 2]
        );
    }
}
