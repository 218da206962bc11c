//! Framework configuration: tolerance model, window, epochs, vertex
//! grain and admission.
//!
//! [`Config::paper_defaults`] is the paper's Table 2 parameterization.
//! Every other [`Config`] comes from [`Config::builder`], which starts
//! from those defaults and defers all validation to
//! [`ConfigBuilder::build`]: a bad value is a typed [`ConfigError`],
//! never a panic.

use crate::time::{EpochClock, SlidingWindow};

/// A typed parse failure for a CLI tag (`FallbackPolicy`, the
/// experiments' `Scale`), carrying what was being parsed, the offending
/// input, and the accepted values.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    what: &'static str,
    got: String,
    expected: &'static str,
}

impl ParseError {
    /// A parse failure of a `what` value: `got` was seen, `expected`
    /// describes the accepted forms.
    pub fn new(what: &'static str, got: &str, expected: &'static str) -> Self {
        ParseError { what, got: got.to_string(), expected }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {} {:?}: expected {}", self.what, self.got, self.expected)
    }
}

impl std::error::Error for ParseError {}

/// The tolerance model of Section 3.1: either a crisp `eps`, or the
/// uncertainty-aware `(eps, delta)` pair in which a location is *close*
/// when it is within `eps` with probability at least `1 - delta`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Tolerance {
    /// Deterministic tolerance `eps` (meters, max-distance).
    Crisp {
        /// Tolerance radius in meters.
        eps: f64,
    },
    /// Probabilistic tolerance `(eps, delta)` for Gaussian measurements.
    Uncertain {
        /// Tolerance radius in meters.
        eps: f64,
        /// Permitted failure probability in `(0, 1)`.
        delta: f64,
    },
}

impl Tolerance {
    /// Crisp tolerance constructor.
    pub fn crisp(eps: f64) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive, got {eps}");
        Tolerance::Crisp { eps }
    }

    /// Probabilistic tolerance constructor.
    pub fn uncertain(eps: f64, delta: f64) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive, got {eps}");
        assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1), got {delta}");
        Tolerance::Uncertain { eps, delta }
    }

    /// The `eps` radius, under either model.
    #[inline]
    pub fn eps(&self) -> f64 {
        match *self {
            Tolerance::Crisp { eps } | Tolerance::Uncertain { eps, .. } => eps,
        }
    }

    /// The failure probability, when probabilistic.
    #[inline]
    pub fn delta(&self) -> Option<f64> {
        match *self {
            Tolerance::Crisp { .. } => None,
            Tolerance::Uncertain { delta, .. } => Some(delta),
        }
    }
}

/// Robustness knobs: a bound on per-epoch ingest and a degraded-epoch
/// threshold. Both default to *off* (zero), which is the paper
/// pipeline. `hotpathd` runs [`Config::paper_defaults`], so only the
/// scenario registry's rows set them. The coordinator keeps no
/// per-client state for them: both act on the sealed batch alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Admission {
    /// Upper bound on states admitted per epoch (the whole drained
    /// batch). `0` = unbounded.
    ///
    /// Enforcement happens at the epoch boundary against the whole
    /// sealed batch, so the decision depends only on what was
    /// submitted, never on timing. An over-cap batch ejects its
    /// slowest client (removing all of its states), repeating until
    /// the batch fits. The slowest client is the one whose newest
    /// state in the batch has the oldest `te`; ties go toward the
    /// smaller id.
    ///
    /// It picks the same victim as a per-client "last heartbeat" table
    /// fed with every submitted state would: such a heartbeat is a
    /// running max of `te`, and each client's `te` is nondecreasing in
    /// submission order (RayTrace reports and boundary resubmissions
    /// only move forward, and a reseeded filter starts at the current
    /// tick), so a client's last heartbeat is the max `te` of its own
    /// batch states.
    pub queue_cap: usize,
    /// Degraded-epoch threshold: when the admitted batch still exceeds
    /// this, the epoch sheds Phase B refinement (FSA-overlap candidate
    /// generation) and serves own-FSA selections only, recording the
    /// epoch in [`crate::stats::AdmissionStats::degraded_epochs`].
    /// `0` = never degrade.
    pub degrade_threshold: usize,
}

/// Full configuration of a hot-motion-path deployment.
///
/// Defaults mirror Table 2 of the paper: `eps = 10` m, `W = 100`
/// timestamps, epoch `Lambda = 10` timestamps, `k = 10`.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Tolerance model.
    pub tolerance: Tolerance,
    /// Sliding window `W` bounding hotness.
    pub window: SlidingWindow,
    /// Epoch clock (`Lambda`).
    pub epochs: EpochClock,
    /// Number of hottest paths to report.
    pub k: usize,
    /// Quantization grain for exact vertex identity (meters). Vertices
    /// within the same grain cell are treated as the same vertex.
    pub vertex_grain: f64,
    /// Admission-control knobs (all off by default).
    pub admission: Admission,
}

impl Config {
    /// The paper's default parameterization (Table 2).
    pub fn paper_defaults() -> Self {
        Config {
            tolerance: Tolerance::crisp(10.0),
            window: SlidingWindow::new(100),
            epochs: EpochClock::new(10),
            k: 10,
            vertex_grain: 1e-3,
            admission: Admission::default(),
        }
    }

    /// A validating builder seeded with the paper defaults. Nothing is
    /// checked until [`build`](ConfigBuilder::build), which returns a
    /// typed [`ConfigError`] covering both per-field and cross-field
    /// invariants.
    pub fn builder() -> ConfigBuilder {
        let config = Config::paper_defaults();
        ConfigBuilder {
            tolerance: config.tolerance,
            window: config.window.len,
            epoch: config.epochs.lambda,
            k: config.k,
            vertex_grain: config.vertex_grain,
            admission: config.admission,
            cap_set: false,
            degrade_set: false,
        }
    }
}

/// A configuration that failed to validate, and why. Produced by
/// [`ConfigBuilder::build`].
#[derive(Clone, PartialEq, Debug)]
pub enum ConfigError {
    /// A field that must be strictly positive was zero (or, for the
    /// float-valued fields, non-positive / non-finite).
    NonPositive(&'static str),
    /// The `delta` of an uncertain tolerance lies outside `(0, 1)`.
    DeltaOutOfRange(f64),
    /// The epoch length exceeds the sliding window: an epoch would
    /// outlive every traversal it admits.
    EpochExceedsWindow {
        /// Configured epoch length `Lambda`.
        epoch: u64,
        /// Configured window length `W`.
        window: u64,
    },
    /// The degraded-epoch threshold is at or above the admission queue
    /// cap. The threshold is tested against the *post-cap* admitted
    /// batch, which never exceeds the cap — such a threshold could
    /// never fire, so the combination is rejected as unreachable.
    DegradeAtOrAboveCap {
        /// Configured degraded-epoch threshold.
        threshold: usize,
        /// Configured admission queue cap.
        cap: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::NonPositive(what) => write!(f, "{what} must be positive"),
            ConfigError::DeltaOutOfRange(delta) => {
                write!(f, "delta must lie in (0, 1), got {delta}")
            }
            ConfigError::EpochExceedsWindow { epoch, window } => write!(
                f,
                "epoch length {epoch} must not exceed the window length {window} \
                 (an epoch would outlive its own traversals)"
            ),
            ConfigError::DegradeAtOrAboveCap { threshold, cap } => write!(
                f,
                "degrade threshold {threshold} must be below the admission queue cap {cap} \
                 (the admitted batch never exceeds the cap, so it could never fire)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Deferred-validation builder for [`Config`].
///
/// Setters never panic; [`build`](Self::build) checks everything at
/// once — per-field positivity (and `delta` in `(0, 1)` for an
/// uncertain tolerance) plus the cross-field invariants
/// (`epoch <= window`, and `degrade threshold < queue cap` when both
/// are set) — and returns the first violation as a [`ConfigError`].
///
/// ```
/// use hotpath_core::prelude::*;
///
/// let config = Config::builder().window(60).epoch(5).k(20).build().unwrap();
/// assert_eq!(config.k, 20);
///
/// // epoch 80 under window 60: rejected at build, not at use.
/// let err = Config::builder().window(60).epoch(80).build().unwrap_err();
/// assert!(matches!(err, ConfigError::EpochExceedsWindow { .. }));
/// ```
#[derive(Clone, Debug)]
pub struct ConfigBuilder {
    tolerance: Tolerance,
    window: u64,
    epoch: u64,
    k: usize,
    vertex_grain: f64,
    admission: Admission,
    /// Whether `admission_cap()` / `degrade_threshold()` were called
    /// explicitly: an explicit zero is an error, while the zero
    /// *default* just means "feature off".
    cap_set: bool,
    degrade_set: bool,
}

impl ConfigBuilder {
    /// Tolerance model.
    pub fn tolerance(mut self, tolerance: Tolerance) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sliding-window length `W` in timestamps.
    pub fn window(mut self, w: u64) -> Self {
        self.window = w;
        self
    }

    /// Epoch length `Lambda` in timestamps.
    pub fn epoch(mut self, lambda: u64) -> Self {
        self.epoch = lambda;
        self
    }

    /// Number of hottest paths to report.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Vertex-identity quantization grain in meters.
    pub fn vertex_grain(mut self, grain: f64) -> Self {
        self.vertex_grain = grain;
        self
    }

    /// Per-epoch admission cap; an over-cap batch ejects its slowest
    /// clients (see [`Admission::queue_cap`]).
    pub fn admission_cap(mut self, queue_cap: usize) -> Self {
        self.admission.queue_cap = queue_cap;
        self.cap_set = true;
        self
    }

    /// Degraded-epoch threshold.
    pub fn degrade_threshold(mut self, threshold: usize) -> Self {
        self.admission.degrade_threshold = threshold;
        self.degrade_set = true;
        self
    }

    /// Validates every invariant and produces the config.
    pub fn build(self) -> Result<Config, ConfigError> {
        let eps = self.tolerance.eps();
        if !(eps > 0.0 && eps.is_finite()) {
            return Err(ConfigError::NonPositive("eps"));
        }
        if let Some(delta) = self.tolerance.delta() {
            if !(delta > 0.0 && delta < 1.0) {
                return Err(ConfigError::DeltaOutOfRange(delta));
            }
        }
        if self.window == 0 {
            return Err(ConfigError::NonPositive("window length"));
        }
        if self.epoch == 0 {
            return Err(ConfigError::NonPositive("epoch length"));
        }
        if self.k == 0 {
            return Err(ConfigError::NonPositive("k"));
        }
        if !(self.vertex_grain > 0.0 && self.vertex_grain.is_finite()) {
            return Err(ConfigError::NonPositive("vertex grain"));
        }
        if self.cap_set && self.admission.queue_cap == 0 {
            return Err(ConfigError::NonPositive("queue cap"));
        }
        if self.degrade_set && self.admission.degrade_threshold == 0 {
            return Err(ConfigError::NonPositive("degrade threshold"));
        }
        if self.epoch > self.window {
            return Err(ConfigError::EpochExceedsWindow { epoch: self.epoch, window: self.window });
        }
        if self.admission.queue_cap > 0
            && self.admission.degrade_threshold > 0
            && self.admission.degrade_threshold >= self.admission.queue_cap
        {
            return Err(ConfigError::DegradeAtOrAboveCap {
                threshold: self.admission.degrade_threshold,
                cap: self.admission.queue_cap,
            });
        }
        Ok(Config {
            tolerance: self.tolerance,
            window: SlidingWindow::new(self.window),
            epochs: EpochClock::new(self.epoch),
            k: self.k,
            vertex_grain: self.vertex_grain,
            admission: self.admission,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table2() {
        let c = Config::paper_defaults();
        assert_eq!(c.tolerance.eps(), 10.0);
        assert_eq!(c.tolerance.delta(), None);
        assert_eq!(c.window.len, 100);
        assert_eq!(c.epochs.lambda, 10);
        assert_eq!(c.k, 10);
    }

    #[test]
    fn builders_compose() {
        let c = Config::builder()
            .tolerance(Tolerance::uncertain(5.0, 0.1))
            .window(50)
            .epoch(5)
            .k(20)
            .build()
            .unwrap();
        assert_eq!(c.tolerance.eps(), 5.0);
        assert_eq!(c.tolerance.delta(), Some(0.1));
        assert_eq!(c.window.len, 50);
        assert_eq!(c.epochs.lambda, 5);
        assert_eq!(c.k, 20);
    }

    #[test]
    fn admission_defaults_are_off_and_builders_compose() {
        let c = Config::paper_defaults();
        assert_eq!(c.admission.queue_cap, 0);
        assert_eq!(c.admission.degrade_threshold, 0);
        let c = Config::builder().admission_cap(500).degrade_threshold(400).build().unwrap();
        assert_eq!(c.admission.queue_cap, 500);
        assert_eq!(c.admission.degrade_threshold, 400);
    }

    #[test]
    fn builder_validates_at_build_not_at_set() {
        // Transiently inconsistent states are fine mid-chain...
        let b = Config::builder().epoch(500).degrade_threshold(40).window(1000);
        // ...and the final state validates.
        let c = b.build().unwrap();
        assert_eq!(c.epochs.lambda, 500);
        assert_eq!(c.window.len, 1000);
        assert_eq!(c.admission.degrade_threshold, 40);
    }

    #[test]
    fn builder_rejects_cross_field_violations() {
        assert_eq!(
            Config::builder().window(20).epoch(30).build().unwrap_err(),
            ConfigError::EpochExceedsWindow { epoch: 30, window: 20 }
        );
        assert_eq!(
            Config::builder().admission_cap(20).degrade_threshold(20).build().unwrap_err(),
            ConfigError::DegradeAtOrAboveCap { threshold: 20, cap: 20 }
        );
        // Either knob alone is unconstrained by the other.
        assert!(Config::builder().degrade_threshold(5).build().is_ok());
        assert!(Config::builder().admission_cap(5).build().is_ok());
    }

    #[test]
    fn builder_rejects_non_positive_fields() {
        for (builder, what) in [
            (Config::builder().window(0), "window length"),
            (Config::builder().epoch(0), "epoch length"),
            (Config::builder().k(0), "k"),
            (Config::builder().vertex_grain(0.0), "vertex grain"),
            (Config::builder().vertex_grain(f64::NAN), "vertex grain"),
            (Config::builder().admission_cap(0), "queue cap"),
            (Config::builder().degrade_threshold(0), "degrade threshold"),
            (Config::builder().tolerance(Tolerance::Crisp { eps: 0.0 }), "eps"),
            (Config::builder().tolerance(Tolerance::Crisp { eps: -1.0 }), "eps"),
            (Config::builder().tolerance(Tolerance::Crisp { eps: f64::NAN }), "eps"),
            (Config::builder().tolerance(Tolerance::Crisp { eps: f64::INFINITY }), "eps"),
            (Config::builder().tolerance(Tolerance::Uncertain { eps: 0.0, delta: 0.1 }), "eps"),
        ] {
            assert_eq!(builder.build().unwrap_err(), ConfigError::NonPositive(what));
        }
    }

    #[test]
    fn builder_rejects_delta_outside_the_unit_interval() {
        for delta in [0.0, 1.0, -0.5, 1.5] {
            let err = Config::builder()
                .tolerance(Tolerance::Uncertain { eps: 10.0, delta })
                .build()
                .unwrap_err();
            assert_eq!(err, ConfigError::DeltaOutOfRange(delta));
        }
        let err = Config::builder()
            .tolerance(Tolerance::Uncertain { eps: 10.0, delta: f64::NAN })
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::DeltaOutOfRange(d) if d.is_nan()));
        assert_eq!(
            ConfigError::DeltaOutOfRange(1.0).to_string(),
            "delta must lie in (0, 1), got 1"
        );
    }

    #[test]
    fn builder_error_messages_name_the_violation() {
        let msg = ConfigError::DegradeAtOrAboveCap { threshold: 9, cap: 8 }.to_string();
        assert!(msg.contains("degrade threshold 9"), "unhelpful message: {msg}");
        assert!(msg.contains("cap 8"), "unhelpful message: {msg}");
        let msg = ConfigError::NonPositive("queue cap").to_string();
        assert_eq!(msg, "queue cap must be positive");
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn rejects_non_positive_eps() {
        let _ = Tolerance::crisp(0.0);
    }

    #[test]
    #[should_panic(expected = "delta must lie in (0, 1)")]
    fn rejects_bad_delta() {
        let _ = Tolerance::uncertain(1.0, 1.0);
    }
}
