//! The pinned-counter gate behind `ci/sim_speed_baseline.json`.
//!
//! Each CI smoke distils its run into a few deterministic counters. A
//! counter is either pinned exactly (the smoke is a pure function of its
//! seed, so a change is a behaviour change, not noise) or allowed up to
//! 5% over its baseline (an efficiency counter). One [`Counters`] list
//! per baseline section carries names, values and bounds; the writer,
//! the parser and the check below are the only code that reads it.

/// How the gate compares a counter with its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Must equal the baseline.
    Exact,
    /// May exceed the baseline by at most 5%.
    Within5Pct,
}

/// One section's counters: `(name, bound)` pairs fixed at compile time.
pub type Spec = &'static [(&'static str, Bound)];

/// One baseline section: a value for every counter of its [`Spec`], in
/// document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    spec: Spec,
    values: Vec<u64>,
}

impl Counters {
    /// Pair `values` with `spec`, in order.
    ///
    /// # Panics
    /// When the value count differs from the spec's counter count.
    #[must_use]
    pub fn new(spec: Spec, values: impl IntoIterator<Item = u64>) -> Counters {
        let values: Vec<u64> = values.into_iter().collect();
        assert_eq!(values.len(), spec.len(), "one value per counter");
        Counters { spec, values }
    }

    /// `(name, value, bound)` for every counter, in document order.
    fn iter(&self) -> impl Iterator<Item = (&'static str, u64, Bound)> + '_ {
        self.spec
            .iter()
            .zip(&self.values)
            .map(|(&(name, bound), &v)| (name, v, bound))
    }

    /// The value of counter `name`.
    ///
    /// # Panics
    /// When `name` is not in the spec.
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.iter()
            .find(|&(n, _, _)| n == name)
            .map(|(_, v, _)| v)
            .unwrap_or_else(|| panic!("no counter named {name}"))
    }

    /// A copy with counter `name` set to `value`.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with(&self, name: &str, value: u64) -> Counters {
        let i = self
            .spec
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("no counter named {name}"));
        let mut c = self.clone();
        c.values[i] = value;
        c
    }

    fn fields(&self) -> impl Iterator<Item = String> + '_ {
        self.iter().map(|(name, v, _)| format!("\"{name}\": {v}"))
    }

    /// Serialize as a multi-line JSON object nested at `indent`.
    #[must_use]
    pub fn to_json(&self, indent: &str) -> String {
        let body: Vec<String> = self.fields().map(|f| format!("{indent}  {f}")).collect();
        format!("{{\n{}\n{indent}}}", body.join(",\n"))
    }

    /// Serialize as a one-line JSON object.
    #[must_use]
    pub fn to_inline_json(&self) -> String {
        format!("{{{}}}", self.fields().collect::<Vec<_>>().join(", "))
    }

    /// Read every counter of `spec` out of a JSON fragment (hand-rolled:
    /// the document holds integer fields this module wrote; no JSON
    /// dependency needed).
    ///
    /// # Errors
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(spec: Spec, text: &str) -> Result<Counters, String> {
        let field = |name: &str| -> Result<u64, String> {
            let key = format!("\"{name}\":");
            let at = text
                .find(&key)
                .ok_or_else(|| format!("baseline is missing {name}"))?;
            let rest = text[at + key.len()..].trim_start();
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits
                .parse()
                .map_err(|e| format!("bad value for {name}: {e}"))
        };
        let values = spec
            .iter()
            .map(|&(name, _)| field(name))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Counters { spec, values })
    }

    /// Gate against `baseline`: every [`Bound::Exact`] counter must match,
    /// every [`Bound::Within5Pct`] counter may exceed it by at most 5%.
    ///
    /// # Errors
    /// Returns a description of the first violated bound.
    pub fn check_against(&self, baseline: &Counters) -> Result<(), String> {
        for (name, got, bound) in self.iter() {
            let base = baseline.get(name);
            match bound {
                Bound::Exact if got != base => {
                    return Err(format!(
                        "{name} changed: {got} vs baseline {base} (behaviour change, re-baseline deliberately)"
                    ));
                }
                // got <= base * 1.05, in integers.
                Bound::Within5Pct if got * 20 > base * 21 => {
                    return Err(format!("{name} regressed >5%: {got} vs baseline {base}"));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = &[("pinned", Bound::Exact), ("slack", Bound::Within5Pct)];

    #[test]
    fn exact_counters_are_pinned_and_slack_counters_get_five_percent() {
        let base = Counters::new(SPEC, [7, 100]);
        assert!(base.check_against(&base).is_ok());
        assert!(base.with("pinned", 6).check_against(&base).is_err());
        assert!(base.with("slack", 105).check_against(&base).is_ok());
        assert!(base.with("slack", 106).check_against(&base).is_err());
        assert!(base.with("slack", 0).check_against(&base).is_ok());
    }

    #[test]
    fn both_writers_roundtrip_through_the_parser() {
        let c = Counters::new(SPEC, [7, 100]);
        assert_eq!(c.to_inline_json(), "{\"pinned\": 7, \"slack\": 100}");
        assert_eq!(Counters::from_json(SPEC, &c.to_json("  ")), Ok(c.clone()));
        assert_eq!(Counters::from_json(SPEC, &c.to_inline_json()), Ok(c));
        assert!(Counters::from_json(SPEC, "{\"pinned\": 7}").is_err());
    }
}
