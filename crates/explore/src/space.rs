//! Declarative design spaces — the axes `stacksim explore` sweeps.
//!
//! A [`SpaceSpec`] is four independent axes: stack option (cache size ×
//! hierarchy × layer split), benchmark, thermal boundary and V/f point.
//! The cartesian product is the design space; a point is a tuple of
//! indices into the axes ([`PointIdx`]), and the canonical enumeration
//! order is the nested `option → benchmark → boundary → vf` loop.

use stacksim_core::harness::json::Json;
use stacksim_core::StackOption;
use stacksim_thermal::Boundary;
use stacksim_workloads::RmsBenchmark;

/// Which cooling configuration (Fig. 8's boundary condition set) a
/// design point is solved under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BoundaryChoice {
    /// The desktop heatsink/airflow point.
    Desktop,
    /// The high-performance cooling point.
    Performance,
}

impl BoundaryChoice {
    /// Both boundary choices, in canonical order.
    pub fn all() -> [BoundaryChoice; 2] {
        [BoundaryChoice::Desktop, BoundaryChoice::Performance]
    }

    /// The stable label used in specs, artifacts and experiment names.
    pub fn label(&self) -> &'static str {
        match self {
            BoundaryChoice::Desktop => "desktop",
            BoundaryChoice::Performance => "performance",
        }
    }

    /// Parses a [`label`](Self::label) back into a choice.
    pub fn parse(label: &str) -> Option<BoundaryChoice> {
        BoundaryChoice::all()
            .into_iter()
            .find(|b| b.label() == label)
    }

    /// The thermal solver boundary this choice denotes.
    pub fn boundary(&self) -> Boundary {
        match self {
            BoundaryChoice::Desktop => Boundary::desktop(),
            BoundaryChoice::Performance => Boundary::performance(),
        }
    }
}

/// One design point as indices into a [`SpaceSpec`]'s axes. `Ord` is the
/// canonical enumeration order (lexicographic on the tuple).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PointIdx {
    /// Index into [`SpaceSpec::options`].
    pub oi: usize,
    /// Index into [`SpaceSpec::benchmarks`].
    pub bi: usize,
    /// Index into [`SpaceSpec::boundaries`].
    pub di: usize,
    /// Index into [`SpaceSpec::vf`].
    pub vi: usize,
}

/// A declarative parameter space: the four axes the search sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceSpec {
    /// Stack options (cache size × hierarchy × layer split).
    pub options: Vec<StackOption>,
    /// RMS benchmarks driving the memory side.
    pub benchmarks: Vec<RmsBenchmark>,
    /// Thermal boundary configurations.
    pub boundaries: Vec<BoundaryChoice>,
    /// Relative V/f scale factors (1.0 = nominal; Vcc and frequency
    /// scale together, Table 5's 1:1 relation).
    pub vf: Vec<f64>,
}

/// The default V/f sweep around nominal.
const DEFAULT_VF: [f64; 6] = [0.85, 0.90, 0.95, 1.00, 1.05, 1.10];

/// The most values a `vf` axis may hold, ramp or array. Checked before the
/// axis is built or validated, so a request cannot make the parser
/// allocate (or the duplicate check scan) an unbounded axis.
pub const MAX_VF_POINTS: usize = 64;

impl SpaceSpec {
    /// The built-in full space: every stack option × all twelve
    /// benchmarks × both boundaries × six V/f points — 576 designs.
    pub fn default_space() -> SpaceSpec {
        SpaceSpec {
            options: StackOption::all().to_vec(),
            benchmarks: RmsBenchmark::all().to_vec(),
            boundaries: BoundaryChoice::all().to_vec(),
            vf: DEFAULT_VF.to_vec(),
        }
    }

    /// Total number of design points (the axes' cartesian product).
    pub fn total_points(&self) -> usize {
        self.options.len() * self.benchmarks.len() * self.boundaries.len() * self.vf.len()
    }

    /// The `n`-th point in canonical enumeration order.
    ///
    /// # Panics
    ///
    /// Panics if `n >= total_points()`.
    pub fn nth(&self, n: usize) -> PointIdx {
        assert!(n < self.total_points(), "point index out of range");
        let nv = self.vf.len();
        let nd = self.boundaries.len();
        let nb = self.benchmarks.len();
        PointIdx {
            oi: n / (nb * nd * nv),
            bi: n / (nd * nv) % nb,
            di: n / nv % nd,
            vi: n % nv,
        }
    }

    /// Checks the axes are non-empty, duplicate-free, physical, and that
    /// `vf` holds at most [`MAX_VF_POINTS`] values.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.options.is_empty()
            || self.benchmarks.is_empty()
            || self.boundaries.is_empty()
            || self.vf.is_empty()
        {
            return Err("every axis needs at least one value".to_string());
        }
        vf_len_ok(self.vf.len())?;
        for (axis, dup) in [
            ("options", has_dup(&self.options)),
            ("benchmarks", has_dup(&self.benchmarks)),
            ("boundaries", has_dup(&self.boundaries)),
        ] {
            if dup {
                return Err(format!("duplicate value on the '{axis}' axis"));
            }
        }
        for &vf in &self.vf {
            if !vf.is_finite() || vf <= 0.0 {
                return Err(format!("vf values must be finite and positive, got {vf}"));
            }
        }
        if self
            .vf
            .iter()
            .any(|a| self.vf.iter().filter(|b| a == *b).count() > 1)
        {
            return Err("duplicate value on the 'vf' axis".to_string());
        }
        Ok(())
    }

    /// Parses a JSON spec. Every axis is optional and defaults to the
    /// built-in full axis; `vf` accepts either an explicit array or a
    /// linear ramp `{"min": .., "max": .., "steps": N}`, of at most
    /// [`MAX_VF_POINTS`] values.
    ///
    /// # Errors
    ///
    /// A description of the malformed field. The parsed spec is also
    /// [`validate`](Self::validate)d.
    pub fn parse(text: &str) -> Result<SpaceSpec, String> {
        let doc = Json::parse(text).map_err(|e| format!("invalid JSON spec: {e}"))?;
        let mut spec = SpaceSpec::default_space();
        if let Some(v) = doc.get("options") {
            spec.options = str_axis(v, "options", |label| {
                StackOption::all().into_iter().find(|o| o.label() == label)
            })?;
        }
        if let Some(v) = doc.get("benchmarks") {
            spec.benchmarks = str_axis(v, "benchmarks", |name| {
                RmsBenchmark::all().into_iter().find(|b| b.name() == name)
            })?;
        }
        if let Some(v) = doc.get("boundaries") {
            spec.boundaries = str_axis(v, "boundaries", BoundaryChoice::parse)?;
        }
        if let Some(v) = doc.get("vf") {
            spec.vf = parse_vf(v)?;
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The spec's JSON form, embedded verbatim in the frontier artifact.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "options",
                Json::Arr(
                    self.options
                        .iter()
                        .map(|o| Json::Str(o.label().to_string()))
                        .collect(),
                ),
            ),
            (
                "benchmarks",
                Json::Arr(
                    self.benchmarks
                        .iter()
                        .map(|b| Json::Str(b.name().to_string()))
                        .collect(),
                ),
            ),
            (
                "boundaries",
                Json::Arr(
                    self.boundaries
                        .iter()
                        .map(|d| Json::Str(d.label().to_string()))
                        .collect(),
                ),
            ),
            ("vf", Json::nums(self.vf.iter().copied())),
        ])
    }
}

fn has_dup<T: PartialEq>(values: &[T]) -> bool {
    values
        .iter()
        .enumerate()
        .any(|(i, a)| values[..i].contains(a))
}

/// Decodes a JSON array of labels through `lookup`.
fn str_axis<T>(v: &Json, axis: &str, lookup: impl Fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
    let arr = v
        .as_arr()
        .ok_or_else(|| format!("'{axis}' must be an array of strings"))?;
    arr.iter()
        .map(|item| {
            let label = item
                .as_str()
                .ok_or_else(|| format!("'{axis}' must be an array of strings"))?;
            lookup(label).ok_or_else(|| format!("unknown value '{label}' on the '{axis}' axis"))
        })
        .collect()
}

/// Refuses a `vf` axis of more than [`MAX_VF_POINTS`] values.
fn vf_len_ok(len: usize) -> Result<(), String> {
    if len > MAX_VF_POINTS {
        return Err(format!(
            "the 'vf' axis holds {len} values, more than the {MAX_VF_POINTS} allowed"
        ));
    }
    Ok(())
}

/// Decodes the `vf` axis: an explicit array or a `{min,max,steps}` ramp.
fn parse_vf(v: &Json) -> Result<Vec<f64>, String> {
    if let Some(arr) = v.as_arr() {
        vf_len_ok(arr.len())?;
        return arr
            .iter()
            .map(|x| {
                x.as_f64()
                    .ok_or_else(|| "'vf' entries must be numbers".to_string())
            })
            .collect();
    }
    let field = |k: &str| {
        v.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("'vf' ramp needs a numeric '{k}'"))
    };
    let (min, max) = (field("min")?, field("max")?);
    let steps = field("steps")?;
    if steps > MAX_VF_POINTS as f64 {
        return Err(format!(
            "the 'vf' ramp has {steps} steps, more than the {MAX_VF_POINTS} allowed"
        ));
    }
    let steps = steps as usize;
    if steps < 2 || !(min.is_finite() && max.is_finite()) || min >= max {
        return Err("'vf' ramp needs min < max and steps >= 2".to_string());
    }
    Ok((0..steps)
        .map(|i| min + (max - min) * i as f64 / (steps - 1) as f64)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_has_576_points_and_validates() {
        let spec = SpaceSpec::default_space();
        assert_eq!(spec.total_points(), 4 * 12 * 2 * 6);
        spec.validate().expect("default space is valid");
    }

    #[test]
    fn nth_enumerates_the_nested_loop_order() {
        let spec = SpaceSpec::default_space();
        assert_eq!(
            spec.nth(0),
            PointIdx {
                oi: 0,
                bi: 0,
                di: 0,
                vi: 0
            }
        );
        assert_eq!(
            spec.nth(1),
            PointIdx {
                oi: 0,
                bi: 0,
                di: 0,
                vi: 1
            }
        );
        assert_eq!(
            spec.nth(6),
            PointIdx {
                oi: 0,
                bi: 0,
                di: 1,
                vi: 0
            }
        );
        assert_eq!(
            spec.nth(12),
            PointIdx {
                oi: 0,
                bi: 1,
                di: 0,
                vi: 0
            }
        );
        assert_eq!(
            spec.nth(144),
            PointIdx {
                oi: 1,
                bi: 0,
                di: 0,
                vi: 0
            }
        );
        let last = spec.nth(575);
        assert_eq!(
            last,
            PointIdx {
                oi: 3,
                bi: 11,
                di: 1,
                vi: 5
            }
        );
        // enumeration is strictly increasing in PointIdx order
        let points: Vec<PointIdx> = (0..spec.total_points()).map(|n| spec.nth(n)).collect();
        assert!(points.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn parse_accepts_partial_specs_and_ramps() {
        let spec = SpaceSpec::parse(
            r#"{"options": ["2D 4MB", "3D 32MB"],
                "benchmarks": ["conj", "gauss"],
                "boundaries": ["desktop"],
                "vf": {"min": 0.9, "max": 1.1, "steps": 3}}"#,
        )
        .expect("parses");
        assert_eq!(
            spec.options,
            vec![StackOption::Planar4M, StackOption::Dram32M]
        );
        assert_eq!(
            spec.benchmarks,
            vec![RmsBenchmark::Conj, RmsBenchmark::Gauss]
        );
        assert_eq!(spec.boundaries, vec![BoundaryChoice::Desktop]);
        assert_eq!(spec.vf, vec![0.9, 1.0, 1.1]);
        assert_eq!(spec.total_points(), 2 * 2 * 3);
        // omitted axes fall back to the full default axis
        let spec = SpaceSpec::parse(r#"{"benchmarks": ["svm"]}"#).expect("parses");
        assert_eq!(spec.options.len(), 4);
        assert_eq!(spec.vf.len(), 6);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for (spec, why) in [
            (r#"{"options": ["5D 1GB"]}"#, "unknown option"),
            (r#"{"benchmarks": []}"#, "empty axis"),
            (r#"{"vf": [0.0]}"#, "non-positive vf"),
            (r#"{"vf": [1.0, 1.0]}"#, "duplicate vf"),
            (
                r#"{"vf": {"min": 1.2, "max": 0.8, "steps": 3}}"#,
                "inverted ramp",
            ),
            (
                r#"{"boundaries": ["desktop", "desktop"]}"#,
                "duplicate boundary",
            ),
            (
                r#"{"vf": {"min": 0.8, "max": 1.2, "steps": 1e17}}"#,
                "oversized ramp",
            ),
            ("{", "bad JSON"),
        ] {
            assert!(SpaceSpec::parse(spec).is_err(), "{why} must be rejected");
        }
    }

    #[test]
    fn vf_axis_is_capped_before_it_is_built() {
        let ramp =
            |steps: usize| format!(r#"{{"vf": {{"min": 0.5, "max": 1.5, "steps": {steps}}}}}"#);
        let spec = SpaceSpec::parse(&ramp(MAX_VF_POINTS)).expect("a ramp at the cap parses");
        assert_eq!(spec.vf.len(), MAX_VF_POINTS);
        let err = SpaceSpec::parse(&ramp(MAX_VF_POINTS + 1)).unwrap_err();
        assert!(err.contains("more than the 64 allowed"), "{err}");
        let array = |n: usize| {
            let vf: Vec<String> = (1..=n).map(|i| i.to_string()).collect();
            format!(r#"{{"vf": [{}]}}"#, vf.join(","))
        };
        assert!(SpaceSpec::parse(&array(MAX_VF_POINTS)).is_ok());
        assert!(SpaceSpec::parse(&array(MAX_VF_POINTS + 1)).is_err());
        // a spec built in code is held to the same cap
        let mut spec = SpaceSpec::default_space();
        spec.vf = (1..=MAX_VF_POINTS + 1).map(|i| i as f64).collect();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = SpaceSpec::default_space();
        let encoded = Json::obj(vec![("spec", spec.to_json())]).encode();
        let reparsed = SpaceSpec::parse(
            &Json::parse(&encoded)
                .expect("valid")
                .get("spec")
                .expect("spec")
                .encode(),
        )
        .expect("round-trips");
        assert_eq!(reparsed, spec);
    }
}
