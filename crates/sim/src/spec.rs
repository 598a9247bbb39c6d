//! Shared parsing helpers for the textual spec grammars (chaos fault
//! programs, workload traffic programs).
//!
//! Both grammars are parse/print round-trippable clause languages, and
//! both take durations, probabilities, and nested-paren argument
//! lists. The helpers here are *hardened*: probabilities outside
//! `[0, 1]` or non-finite, and durations whose nanosecond value would
//! overflow a `u64`, are rejected with a clear message instead of
//! silently producing nonsense programs (`loss(1.5)` used to behave
//! as always-drop; `flap(99999999999999s,..)` used to wrap).

use crate::time::Dur;

/// Renders a duration in the largest unit that divides it exactly
/// (`1500000ns` → `1500us`). Inverse of [`parse_dur`].
pub(crate) fn fmt_dur(d: Dur) -> String {
    let ns = d.nanos();
    if ns == 0 {
        "0ns".to_string()
    } else if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// Parses a duration with a `ns`/`us`/`ms`/`s` suffix. The
/// digits→nanoseconds conversion is checked: values that would
/// overflow `u64` nanoseconds are a parse error, never a silent wrap.
pub(crate) fn parse_dur(s: &str) -> Result<Dur, String> {
    let s = s.trim();
    let (digits, mult) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        return Err(format!("duration `{s}` needs a ns/us/ms/s suffix"));
    };
    let n: u64 = digits.trim().parse().map_err(|_| format!("bad duration `{s}`"))?;
    let ns = n.checked_mul(mult).ok_or_else(|| format!("duration `{s}` overflows u64 ns"))?;
    Ok(Dur::from_nanos(ns))
}

/// Parses a finite `f64`. `NaN`/`inf` (which `str::parse` happily
/// accepts) are rejected — a schedule with a NaN rate is never what
/// anyone meant.
pub(crate) fn parse_f64(s: &str) -> Result<f64, String> {
    let v: f64 = s.trim().parse().map_err(|_| format!("bad number `{s}`"))?;
    if !v.is_finite() {
        return Err(format!("number `{}` must be finite", s.trim()));
    }
    Ok(v)
}

/// Parses a probability: a finite `f64` in `[0, 1]`. Out-of-range
/// rates (`loss(1.5)`, `loss(-0.1)`) are a parse error with the
/// offending token named, not a silently saturating schedule.
pub(crate) fn parse_prob(s: &str) -> Result<f64, String> {
    let v = parse_f64(s)?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("probability `{}` must be within [0, 1]", s.trim()));
    }
    Ok(v)
}

/// Splits `s` on top-level commas — commas nested inside parentheses
/// stay put, so `poisson(50us),fixed(32)` splits into two fields.
/// Returns an empty list for an all-whitespace input.
fn split_top(s: &str) -> Result<Vec<&str>, String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth = depth.checked_sub(1).ok_or_else(|| format!("unbalanced `)` in `{s}`"))?
            }
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err(format!("unbalanced `(` in `{s}`"));
    }
    out.push(&s[start..]);
    if out.len() == 1 && out[0].trim().is_empty() {
        return Ok(Vec::new());
    }
    Ok(out)
}

/// Splits `kind(a,b,c)` into `("kind", ["a", "b", "c"])`; a bare
/// `kind` has no arguments. The argument split is top-level only
/// (see [`split_top`]), so arguments may themselves be calls.
pub(crate) fn parse_call(s: &str) -> Result<(&str, Vec<&str>), String> {
    let s = s.trim();
    match s.find('(') {
        Some(i) => {
            let inner = s[i..]
                .strip_prefix('(')
                .and_then(|a| a.strip_suffix(')'))
                .ok_or_else(|| format!("unterminated args in `{s}`"))?;
            Ok((s[..i].trim(), split_top(inner)?))
        }
        None => Ok((s, Vec::new())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_round_trip() {
        for s in ["0ns", "1ns", "999ns", "1us", "1500us", "3ms", "2s"] {
            assert_eq!(fmt_dur(parse_dur(s).unwrap()), s);
        }
    }

    #[test]
    fn duration_overflow_is_an_error() {
        assert!(parse_dur("99999999999999s").is_err());
        assert!(parse_dur("18446744073709551615ns").is_ok(), "u64::MAX ns itself fits");
        assert!(parse_dur("18446744073709551615us").is_err());
    }

    #[test]
    fn probabilities_are_validated() {
        assert_eq!(parse_prob("0.5").unwrap(), 0.5);
        assert_eq!(parse_prob("0").unwrap(), 0.0);
        assert_eq!(parse_prob("1").unwrap(), 1.0);
        for bad in ["1.5", "-0.1", "NaN", "inf", "-inf", "x"] {
            assert!(parse_prob(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn f64_rejects_non_finite() {
        assert!(parse_f64("2.5").is_ok());
        for bad in ["NaN", "nan", "inf", "-inf", "infinity"] {
            assert!(parse_f64(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn top_level_split_respects_parens() {
        assert_eq!(split_top("a,b,c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(split_top("f(x,y),g(z)").unwrap(), vec!["f(x,y)", "g(z)"]);
        assert_eq!(split_top("").unwrap(), Vec::<&str>::new());
        assert!(split_top("f(x").is_err());
        assert!(split_top("f)x(").is_err());
    }

    #[test]
    fn calls_parse() {
        assert_eq!(parse_call("uniform").unwrap(), ("uniform", vec![]));
        assert_eq!(parse_call("fixed(32)").unwrap(), ("fixed", vec!["32"]));
        let (k, args) = parse_call("bursty(50us,200us,800us)").unwrap();
        assert_eq!(k, "bursty");
        assert_eq!(args, vec!["50us", "200us", "800us"]);
        assert!(parse_call("fixed(32").is_err());
    }
}
