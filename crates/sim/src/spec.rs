//! Serializable design and scenario specifications, and the JSON forms
//! of the simulator state a checkpoint persists.
//!
//! A [`DesignSpec`] is the wire form of "which design to build": a
//! registered builder *kind* (designs themselves are Rust closures and
//! cannot travel over a socket), the input type to impose, and a flat
//! map of numeric parameters the builder interprets. Together with the
//! JSON form of a [`ScenarioSet`] it lets a job server reconstruct a
//! `Design` + stimulus deterministically from a submitted JSON spec:
//! the same spec always rebuilds the same design and the same scenario
//! grid, bit for bit.
//!
//! Every encoding here is a field list over [`fixref_obs::json`]'s
//! `ToJson`/`FromJson` traits: non-finite floats are spelled as strings
//! (`"Infinity"` for a noiseless replay scenario's SNR) and errors are
//! structured, naming the bad member. The fixed-point value types live in
//! `fixref-fixed`, which has no JSON layer, so their wire forms are the
//! codecs [`IntervalCodec`], [`DTypeCodec`], [`StatsCodec`] and
//! [`TokenCodec`], which the checkpoint format also uses.

use std::fmt;

use fixref_fixed::{
    DType, ErrorStats, Interval, OverflowMode, RangeStats, RoundingMode, Signedness,
};
use fixref_obs::json::{self, FromJson, Json, JsonCodec, JsonError, Members, ToJson};

use crate::design::{OverflowEvent, SignalAnnotation, SignalId, SignalStats};
use crate::scenario::{Scenario, ScenarioSet};

/// Why a spec document could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What went wrong, with the offending member named.
    pub message: String,
}

impl SpecError {
    /// A spec error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::new(e.to_string())
    }
}

/// The serializable description of a design to build.
///
/// `kind` names a builder in the consumer's design registry (e.g.
/// `"lms"`, `"timing"`); `params` are numeric knobs that builder
/// understands, kept in insertion order. The spec is plain data: two
/// equal specs reconstruct bit-identical designs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DesignSpec {
    /// Registered builder kind.
    pub kind: String,
    /// Input data type to impose, in `<n,f,…>` display form (builder
    /// default when absent).
    pub input_dtype: Option<String>,
    /// Numeric builder parameters, in insertion order.
    pub params: Vec<(String, f64)>,
}

impl DesignSpec {
    /// A spec for builder `kind` with no overrides.
    pub fn new(kind: impl Into<String>) -> Self {
        DesignSpec {
            kind: kind.into(),
            ..DesignSpec::default()
        }
    }

    /// Sets the imposed input type (display form).
    pub fn with_input_dtype(mut self, dtype: impl Into<String>) -> Self {
        self.input_dtype = Some(dtype.into());
        self
    }

    /// Appends a numeric builder parameter.
    pub fn with_param(mut self, name: impl Into<String>, value: f64) -> Self {
        self.params.push((name.into(), value));
        self
    }

    /// The value of parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.params.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

fixref_obs::json_struct! {
    DesignSpec: SpecError { kind, input_dtype, params as Members = Vec::new() }
}

fixref_obs::json_struct! {
    Scenario {
        skip index = 0,
        seed,
        snr_db,
        channel_taps,
        samples,
        stimulus as Members = Vec::new(),
    }
}

/// A scenario set is a JSON array of scenario objects. Witness stimulus
/// streams and non-finite SNRs round-trip exactly.
impl ToJson for ScenarioSet {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// Scenario indices are reassigned in array order, so the decoded set
/// folds identically to the encoded one.
impl FromJson for ScenarioSet {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        let items = v
            .as_arr()
            .ok_or_else(|| JsonError::decode("expected an array of scenarios"))?;
        let scenarios = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                Scenario::from_json_value(item).map_err(|e| JsonError {
                    message: format!("scenario {i}: {}", e.message),
                    ..e.at(&format!("[{i}]"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ScenarioSet::from_scenarios(scenarios))
    }
}

// ---------------------------------------------------------------------------
// Simulator state persisted by checkpoints
// ---------------------------------------------------------------------------

/// The placeholder id carried by decoded analyses and overflow events
/// until a resuming flow rebinds them by name against its design.
pub fn unbound_id() -> SignalId {
    SignalId::from_raw(u32::MAX)
}

fixref_obs::json_struct! {
    SignalAnnotation { name, dtype as DTypeCodec, range as IntervalCodec, error_sigma }
}

fixref_obs::json_struct! {
    SignalStats {
        name,
        stat as StatsCodec,
        prop as IntervalCodec,
        consumed as StatsCodec,
        produced as StatsCodec,
        overflows,
        reads,
        writes,
        granularity,
        non_dyadic,
    }
}

fixref_obs::json_struct! {
    OverflowEvent { skip signal = unbound_id(), name, value, cycle }
}

/// An [`Interval`] as `[lo, hi]`. Decoded as a raw pair (not via
/// [`Interval::new`]) because the empty interval legitimately encodes
/// as `["Infinity","-Infinity"]`.
#[derive(Debug, Clone, Copy)]
pub struct IntervalCodec;

impl JsonCodec<Interval> for IntervalCodec {
    fn write(value: &Interval, out: &mut String) {
        (value.lo, value.hi).write_json(out);
    }

    fn read(v: &Json) -> Result<Interval, JsonError> {
        let (lo, hi) = FromJson::from_json_value(v)?;
        Ok(Interval { lo, hi })
    }
}

/// A [`DType`] as `{"name","n","f","vt","ovf","rnd"}`, validated by
/// [`DType::new`] on the way back in.
#[derive(Debug, Clone, Copy)]
pub struct DTypeCodec;

impl JsonCodec<DType> for DTypeCodec {
    fn write(value: &DType, out: &mut String) {
        json::write_object(
            out,
            &[
                ("name", &value.name()),
                ("n", &value.n()),
                ("f", &value.f()),
                ("vt", &value.signedness().token()),
                ("ovf", &value.overflow().token()),
                ("rnd", &value.rounding().token()),
            ],
        );
    }

    fn read(v: &Json) -> Result<DType, JsonError> {
        json::expect_object(v)?;
        DType::new(
            json::member::<String>(v, "name")?,
            json::member(v, "n")?,
            json::member(v, "f")?,
            json::read_member(v, "vt", TokenCodec::read)?,
            json::read_member(v, "ovf", TokenCodec::read)?,
            json::read_member(v, "rnd", TokenCodec::read)?,
        )
        .map_err(|e| JsonError::decode(e.to_string()))
    }
}

/// The monitor accumulators as their raw state arrays: [`RangeStats`]
/// as `[min, max, count]`, [`ErrorStats`] as `[count, mean, m2, max]`.
#[derive(Debug, Clone, Copy)]
pub struct StatsCodec;

impl JsonCodec<RangeStats> for StatsCodec {
    fn write(value: &RangeStats, out: &mut String) {
        value.to_raw().write_json(out);
    }

    fn read(v: &Json) -> Result<RangeStats, JsonError> {
        let (min, max, count) = FromJson::from_json_value(v)?;
        Ok(RangeStats::from_raw(min, max, count))
    }
}

impl JsonCodec<ErrorStats> for StatsCodec {
    fn write(value: &ErrorStats, out: &mut String) {
        value.to_raw().write_json(out);
    }

    fn read(v: &Json) -> Result<ErrorStats, JsonError> {
        let (count, mean, m2, max_abs) = FromJson::from_json_value(v)?;
        Ok(ErrorStats::from_raw(count, mean, m2, max_abs))
    }
}

/// The mode enums as their two-letter dtype tokens (`"tc"`, `"st"`,
/// `"rd"`, …).
#[derive(Debug, Clone, Copy)]
pub struct TokenCodec;

macro_rules! token_codec {
    ($($ty:ty => [$($variant:expr),+]),+ $(,)?) => {$(
        impl JsonCodec<$ty> for TokenCodec {
            fn write(value: &$ty, out: &mut String) {
                value.token().write_json(out);
            }

            fn read(v: &Json) -> Result<$ty, JsonError> {
                json::read_token(v, &[$($variant),+], |t| t.token())
            }
        }
    )+};
}

token_codec! {
    Signedness => [Signedness::TwosComplement, Signedness::Unsigned],
    OverflowMode => [OverflowMode::Wrap, OverflowMode::Saturate, OverflowMode::Error],
    RoundingMode => [RoundingMode::Round, RoundingMode::Floor],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_spec_params_are_looked_up_by_name() {
        let spec = DesignSpec::new("lms")
            .with_param("taps", 3.0)
            .with_param("mu", 0.05);
        assert_eq!(spec.param("mu"), Some(0.05));
        assert_eq!(spec.param("missing"), None);
        let bare = DesignSpec::from_json(r#"{"kind":"timing"}"#).expect("parses");
        assert_eq!(bare, DesignSpec::new("timing"));
    }

    #[test]
    fn malformed_design_specs_are_structured_errors() {
        assert!(DesignSpec::from_json("not json").is_err());
        assert!(DesignSpec::from_json(r#"{"params":{}}"#).is_err());
        assert!(DesignSpec::from_json(r#"{"kind":"lms","params":{"mu":"fast"}}"#).is_err());
        assert!(DesignSpec::from_json(r#"{"kind":"lms","input_dtype":7}"#).is_err());
    }

    #[test]
    fn scenario_indices_are_reassigned_in_order() {
        let set = ScenarioSet::grid(&[7, 8, 9], &[28.0], &[], &[100]);
        let back: ScenarioSet = json::decode(&json::encode(&set)).expect("parses");
        for (i, s) in back.iter().enumerate() {
            assert_eq!(s.index, i);
        }
    }

    #[test]
    fn malformed_scenarios_are_structured_errors() {
        assert!(json::decode::<ScenarioSet>("{}").is_err());
        assert!(json::decode::<ScenarioSet>(r#"[{"seed":1}]"#).is_err());
        let err = json::decode::<ScenarioSet>(r#"[{"seed":1,"snr_db":"loud","samples":4}]"#)
            .expect_err("mistyped snr");
        assert!(err.to_string().contains("scenario 0"), "{err}");
    }

    #[test]
    fn invalid_dtypes_are_rejected_by_dtype_new() {
        let doc = r#"{"name":"t","n":0,"f":0,"vt":"tc","ovf":"st","rnd":"rd"}"#;
        let v = Json::parse(doc).expect("parses");
        assert!(<DTypeCodec as JsonCodec<DType>>::read(&v).is_err());
        let doc = r#"{"name":"t","n":8,"f":6,"vt":"xx","ovf":"st","rnd":"rd"}"#;
        let err = <DTypeCodec as JsonCodec<DType>>::read(&Json::parse(doc).expect("parses"))
            .expect_err("unknown token");
        assert_eq!(err.path, "vt");
    }
}
