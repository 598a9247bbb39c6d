//! The skeleton both textual spec grammars (chaos fault programs,
//! workload traffic programs) share.
//!
//! Both are parse/print round-trippable clause languages: clauses
//! joined by `;` ([`parse_clauses`], [`join_clauses`]), each a
//! `kind(args)` call ([`parse_call`]) with an optional
//! `[from..until]` live window ([`split_window`], [`fmt_window`]),
//! taking durations, probabilities, and nested-paren argument lists.
//! The helpers here are *hardened*: probabilities outside `[0, 1]` or
//! non-finite, durations whose nanosecond value would overflow a
//! `u64`, and empty windows are rejected with a clear message instead
//! of silently producing nonsense programs (`loss(1.5)` used to behave
//! as always-drop; `flap(99999999999999s,..)` used to wrap).

use crate::time::{Dur, Time};
use std::fmt;

/// Parses a `;`-separated clause list, each clause with `clause`;
/// empty clauses (a trailing `;`, an empty spec) are skipped.
pub(crate) fn parse_clauses<T>(
    spec: &str,
    clause: impl FnMut(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    spec.split(';').map(str::trim).filter(|c| !c.is_empty()).map(clause).collect()
}

/// Joins clauses with `;`: the inverse of [`parse_clauses`].
pub(crate) fn join_clauses<T: fmt::Display>(clauses: &[T]) -> String {
    clauses.iter().map(T::to_string).collect::<Vec<_>>().join(";")
}

/// Splits the optional `[from..until]` window suffix off a clause and
/// parses it, returning `(head, from, until)`. No suffix means all
/// time (`Time::ZERO` to `Time::MAX`); an empty `until` means forever.
/// A window must be non-empty: `[5ms..1ms]` and `[1ms..1ms]` are
/// errors, not clauses that are never live.
pub(crate) fn split_window(raw: &str) -> Result<(&str, Time, Time), String> {
    let Some(i) = raw.find('[') else {
        return Ok((raw, Time::ZERO, Time::MAX));
    };
    let w =
        raw[i + 1..].strip_suffix(']').ok_or_else(|| format!("unterminated window in `{raw}`"))?;
    let (from, until) = w.split_once("..").ok_or_else(|| format!("bad window `[{w}]`"))?;
    let from = Time::from_nanos(parse_dur(from)?.nanos());
    let until = if until.trim().is_empty() {
        Time::MAX
    } else {
        Time::from_nanos(parse_dur(until)?.nanos())
    };
    if until <= from {
        return Err(format!("empty window `[{w}]`"));
    }
    Ok((&raw[..i], from, until))
}

/// Writes the window suffix [`split_window`] parses; nothing for all
/// time.
pub(crate) fn fmt_window(f: &mut fmt::Formatter<'_>, from: Time, until: Time) -> fmt::Result {
    if from == Time::ZERO && until == Time::MAX {
        return Ok(());
    }
    write!(f, "[{}..", fmt_dur(Dur::from_nanos(from.nanos())))?;
    if until != Time::MAX {
        write!(f, "{}", fmt_dur(Dur::from_nanos(until.nanos())))?;
    }
    f.write_str("]")
}

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
pub(crate) mod tests {
    use super::*;

    /// Edits the valid spec `base` with `bytes`, two bytes per edit:
    /// the first picks an offset, the second a token of the grammar's
    /// alphabet that replaces the character there. The alphabet is the
    /// shared punctuation, digits and duration units, then the
    /// grammar's own `words`. Few edits leave texts close enough to the
    /// grammar to reach deep into a parser; many leave noise.
    pub(crate) fn mutate(base: &str, bytes: &[u8], words: &[&str]) -> String {
        const SHARED: [&str; 23] = [
            "(", ")", "[", "]", "@", ";", ".", ",", "..", "0", "1", "2", "3", "4", "5", "6", "7",
            "8", "9", "ns", "us", "ms", "s",
        ];
        let mut text = base.to_string();
        for edit in bytes.chunks_exact(2) {
            let at = edit[0] as usize % (text.len() + 1);
            let i = edit[1] as usize % (SHARED.len() + words.len());
            let token = SHARED.get(i).copied().unwrap_or_else(|| words[i - SHARED.len()]);
            text.replace_range(at..(at + 1).min(text.len()), token);
        }
        text
    }

    #[test]
    fn clause_lists_skip_empty_clauses() {
        let parsed = parse_clauses(" a ;;b; ", |c| Ok::<_, String>(c.to_string())).unwrap();
        assert_eq!(parsed, ["a", "b"]);
        assert_eq!(join_clauses(&parsed), "a;b");
        assert!(parse_clauses("", |c| Ok::<_, String>(c.len())).unwrap().is_empty());
    }

    #[test]
    fn windows_parse_and_must_be_non_empty() {
        let ms = Time::from_millis;
        assert_eq!(split_window("f(1)").unwrap(), ("f(1)", Time::ZERO, Time::MAX));
        assert_eq!(split_window("f(1)[1ms..2ms]").unwrap(), ("f(1)", ms(1), ms(2)));
        assert_eq!(split_window("f(1)[1ms..]").unwrap(), ("f(1)", ms(1), Time::MAX));
        for bad in ["f[5ms..1ms]", "f[1ms..1ms]", "f[1ms..", "f[1ms]", "f[x..2ms]"] {
            assert!(split_window(bad).is_err(), "`{bad}` should not parse");
        }
    }

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
