//! Civil-date and month arithmetic for longitudinal TLS measurement.
//!
//! Everything in the paper is bucketed by calendar month ("percent of
//! monthly connections"), and all attack/release timelines are civil
//! dates. This crate provides a tiny, dependency-free, proleptic-Gregorian
//! date library: [`Date`] for day-resolution timelines and [`Month`] for
//! the aggregation buckets.
//!
//! The day-number conversion uses Howard Hinnant's `days_from_civil`
//! algorithm, which is exact over the entire i32 year range; we only ever
//! exercise 1995–2030.
//!
//! # Examples
//!
//! ```
//! use tlscope_chron::{Date, Month};
//!
//! let heartbleed = Date::new(2014, 4, 7).unwrap();
//! let poodle = Date::new(2014, 10, 14).unwrap();
//! assert_eq!(poodle - heartbleed, 190);
//! assert_eq!(heartbleed.month(), Month::new(2014, 4).unwrap());
//!
//! // Iterate the paper's measurement window month by month.
//! let window: Vec<Month> = Month::new(2012, 2).unwrap()
//!     .iter_through(Month::new(2012, 5).unwrap())
//!     .collect();
//! assert_eq!(window.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;
use core::str::FromStr;

/// Errors produced when constructing or parsing dates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DateError {
    /// Month outside 1..=12.
    BadMonth(u8),
    /// Day outside the valid range for the given year/month.
    BadDay(u8),
    /// A string did not match the expected `YYYY-MM-DD` / `YYYY-MM` layout.
    BadFormat,
}

impl fmt::Display for DateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DateError::BadMonth(m) => write!(f, "month {m} out of range 1..=12"),
            DateError::BadDay(d) => write!(f, "day {d} invalid for this year/month"),
            DateError::BadFormat => write!(f, "expected YYYY-MM-DD or YYYY-MM"),
        }
    }
}

impl std::error::Error for DateError {}

/// True if `year` is a leap year in the Gregorian calendar.
pub fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Number of days in the given month of the given year.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// A proleptic-Gregorian civil date with day resolution.
///
/// Ordered chronologically; subtraction yields a signed day count.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: i16,
    month: u8,
    day: u8,
}

impl Date {
    /// Construct a date, validating the month and day.
    pub fn new(year: i32, month: u8, day: u8) -> Result<Self, DateError> {
        if !(1..=12).contains(&month) {
            return Err(DateError::BadMonth(month));
        }
        if day == 0 || day > days_in_month(year, month) {
            return Err(DateError::BadDay(day));
        }
        Ok(Date {
            year: year as i16,
            month,
            day,
        })
    }

    /// Construct a date from `(year, month, day)` known to be valid.
    ///
    /// # Panics
    /// Panics if the triple is not a valid calendar date. Intended for
    /// literals in static tables (attack timelines, release dates).
    pub const fn ymd(year: i32, month: u8, day: u8) -> Self {
        // Validation mirrors `new` but stays const-evaluable.
        assert!(month >= 1 && month <= 12, "month out of range");
        let dim = match month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            _ => {
                if year % 4 == 0 && (year % 100 != 0 || year % 400 == 0) {
                    29
                } else {
                    28
                }
            }
        };
        assert!(day >= 1 && day <= dim, "day out of range");
        Date {
            year: year as i16,
            month,
            day,
        }
    }

    /// Year component.
    pub fn year(self) -> i32 {
        self.year as i32
    }

    /// Month component, 1..=12.
    pub fn month_of_year(self) -> u8 {
        self.month
    }

    /// Day-of-month component, 1..=31.
    pub fn day(self) -> u8 {
        self.day
    }

    /// The month bucket containing this date.
    pub fn month(self) -> Month {
        Month {
            year: self.year,
            month: self.month,
        }
    }

    /// Days since the civil epoch 1970-01-01 (negative before it).
    ///
    /// Hinnant's `days_from_civil`.
    pub fn to_epoch_days(self) -> i64 {
        let y = self.year as i64 - i64::from(self.month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = self.month as i64;
        let d = self.day as i64;
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146097 + doe - 719468
    }

    /// Inverse of [`Date::to_epoch_days`] (Hinnant's `civil_from_days`).
    pub fn from_epoch_days(days: i64) -> Self {
        let z = days + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
        Date {
            year: (y + i64::from(m <= 2)) as i16,
            month: m,
            day: d,
        }
    }

    /// This date shifted by a signed number of days.
    pub fn add_days(self, days: i64) -> Self {
        Self::from_epoch_days(self.to_epoch_days() + days)
    }
}

impl core::ops::Sub for Date {
    type Output = i64;

    /// Signed day difference `self - other`.
    fn sub(self, other: Date) -> i64 {
        self.to_epoch_days() - other.to_epoch_days()
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl fmt::Debug for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Date {
    type Err = DateError;

    /// Parse `YYYY-MM-DD`.
    fn from_str(s: &str) -> Result<Self, DateError> {
        let mut it = s.split('-');
        let y = it
            .next()
            .and_then(|p| p.parse::<i32>().ok())
            .ok_or(DateError::BadFormat)?;
        let m = it
            .next()
            .and_then(|p| p.parse::<u8>().ok())
            .ok_or(DateError::BadFormat)?;
        let d = it
            .next()
            .and_then(|p| p.parse::<u8>().ok())
            .ok_or(DateError::BadFormat)?;
        if it.next().is_some() {
            return Err(DateError::BadFormat);
        }
        Date::new(y, m, d)
    }
}

/// A calendar month, the aggregation bucket used throughout the paper.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Month {
    year: i16,
    month: u8,
}

impl Month {
    /// Construct a month bucket, validating the month number.
    pub fn new(year: i32, month: u8) -> Result<Self, DateError> {
        if !(1..=12).contains(&month) {
            return Err(DateError::BadMonth(month));
        }
        Ok(Month {
            year: year as i16,
            month,
        })
    }

    /// Const constructor for static tables.
    ///
    /// # Panics
    /// Panics if `month` is outside 1..=12.
    pub const fn ym(year: i32, month: u8) -> Self {
        assert!(month >= 1 && month <= 12, "month out of range");
        Month {
            year: year as i16,
            month,
        }
    }

    /// Year component.
    pub fn year(self) -> i32 {
        self.year as i32
    }

    /// Month number, 1..=12.
    pub fn month_of_year(self) -> u8 {
        self.month
    }

    /// Number of days in this month.
    pub fn len_days(self) -> u8 {
        days_in_month(self.year as i32, self.month)
    }

    /// Months since year 0 month 1; a convenient linear index.
    pub fn index(self) -> i32 {
        self.year as i32 * 12 + (self.month as i32 - 1)
    }

    /// The month `n` steps after (`n` may be negative) this one.
    pub fn add_months(self, n: i32) -> Self {
        let idx = self.index() + n;
        Month {
            year: idx.div_euclid(12) as i16,
            month: (idx.rem_euclid(12) + 1) as u8,
        }
    }

    /// The following month.
    pub fn next(self) -> Self {
        self.add_months(1)
    }

    /// The preceding month.
    pub fn prev(self) -> Self {
        self.add_months(-1)
    }

    /// Signed month difference `self - other`.
    pub fn months_since(self, other: Month) -> i32 {
        self.index() - other.index()
    }

    /// Inclusive iterator from `self` through `end`.
    ///
    /// Empty if `end < self`.
    pub fn iter_through(self, end: Month) -> MonthRange {
        MonthRange {
            next: self,
            end,
            done: end < self,
        }
    }
}

impl fmt::Display for Month {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}", self.year, self.month)
    }
}

impl fmt::Debug for Month {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Month {
    type Err = DateError;

    /// Parse `YYYY-MM`.
    fn from_str(s: &str) -> Result<Self, DateError> {
        let mut it = s.split('-');
        let y = it
            .next()
            .and_then(|p| p.parse::<i32>().ok())
            .ok_or(DateError::BadFormat)?;
        let m = it
            .next()
            .and_then(|p| p.parse::<u8>().ok())
            .ok_or(DateError::BadFormat)?;
        if it.next().is_some() {
            return Err(DateError::BadFormat);
        }
        Month::new(y, m)
    }
}

/// Inclusive month-range iterator produced by [`Month::iter_through`].
#[derive(Debug, Clone)]
pub struct MonthRange {
    next: Month,
    end: Month,
    done: bool,
}

impl Iterator for MonthRange {
    type Item = Month;

    fn next(&mut self) -> Option<Month> {
        if self.done {
            return None;
        }
        let cur = self.next;
        if cur == self.end {
            self.done = true;
        } else {
            self.next = cur.next();
        }
        Some(cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            (0, Some(0))
        } else {
            let n = (self.end.months_since(self.next) + 1) as usize;
            (n, Some(n))
        }
    }
}

impl ExactSizeIterator for MonthRange {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_roundtrip_known_values() {
        assert_eq!(Date::ymd(1970, 1, 1).to_epoch_days(), 0);
        assert_eq!(Date::ymd(1970, 1, 2).to_epoch_days(), 1);
        assert_eq!(Date::ymd(1969, 12, 31).to_epoch_days(), -1);
        assert_eq!(Date::ymd(2000, 3, 1).to_epoch_days(), 11017);
        assert_eq!(Date::from_epoch_days(11017), Date::ymd(2000, 3, 1));
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2012));
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(!is_leap_year(2018));
        assert_eq!(days_in_month(2012, 2), 29);
        assert_eq!(days_in_month(2018, 2), 28);
    }

    #[test]
    fn date_validation() {
        assert!(Date::new(2018, 2, 29).is_err());
        assert!(Date::new(2018, 13, 1).is_err());
        assert!(Date::new(2018, 0, 1).is_err());
        assert!(Date::new(2018, 6, 31).is_err());
        assert!(Date::new(2016, 2, 29).is_ok());
    }

    #[test]
    fn date_ordering_and_subtraction() {
        let a = Date::ymd(2013, 3, 12); // first RC4 attack
        let b = Date::ymd(2014, 4, 7); // Heartbleed disclosure
        assert!(a < b);
        assert_eq!(b - a, 391);
        assert_eq!(a - b, -391);
        assert_eq!(a.add_days(391), b);
    }

    #[test]
    fn month_arithmetic() {
        let m = Month::ym(2012, 2);
        assert_eq!(m.next(), Month::ym(2012, 3));
        assert_eq!(Month::ym(2012, 12).next(), Month::ym(2013, 1));
        assert_eq!(Month::ym(2013, 1).prev(), Month::ym(2012, 12));
        assert_eq!(m.add_months(25), Month::ym(2014, 3));
        assert_eq!(Month::ym(2018, 3).months_since(m), 73);
    }

    #[test]
    fn month_range_covers_study_window() {
        // The Notary window: Feb 2012 through Mar 2018 inclusive.
        let months: Vec<Month> = Month::ym(2012, 2)
            .iter_through(Month::ym(2018, 3))
            .collect();
        assert_eq!(months.len(), 74);
        assert_eq!(months[0], Month::ym(2012, 2));
        assert_eq!(*months.last().unwrap(), Month::ym(2018, 3));
    }

    #[test]
    fn month_range_empty_when_reversed() {
        let mut it = Month::ym(2018, 3).iter_through(Month::ym(2012, 2));
        assert_eq!(it.next(), None);
        assert_eq!(it.len(), 0);
    }

    #[test]
    fn month_range_single() {
        let v: Vec<_> = Month::ym(2015, 7)
            .iter_through(Month::ym(2015, 7))
            .collect();
        assert_eq!(v, vec![Month::ym(2015, 7)]);
    }

    #[test]
    fn parsing() {
        assert_eq!("2014-04-07".parse::<Date>().unwrap(), Date::ymd(2014, 4, 7));
        assert_eq!("2015-08".parse::<Month>().unwrap(), Month::ym(2015, 8));
        assert!("2014-04-07-x".parse::<Date>().is_err());
        assert!("2014/04/07".parse::<Date>().is_err());
        assert!("2014-04".parse::<Date>().is_err());
        assert!("2014".parse::<Month>().is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Date::ymd(2014, 4, 7).to_string(), "2014-04-07");
        assert_eq!(Month::ym(2012, 2).to_string(), "2012-02");
    }

    #[test]
    fn month_boundaries() {
        let m = Month::ym(2016, 2);
        assert_eq!(m.len_days(), 29);
    }
}
