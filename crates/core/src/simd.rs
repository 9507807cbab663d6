//! Host instruction-set probe, recorded in benchmark reports.
//!
//! No kernel dispatches on it: the accumulators run the paper's plain
//! scalar loops (§5.2, §5.3) on every host.

/// The widest x86 vector extension the host supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Neither AVX2 nor SSE4.2, or not an x86_64 host.
    Scalar,
    /// SSE4.2 without AVX2.
    Sse42,
    /// AVX2.
    Avx2,
}

impl SimdLevel {
    /// The name reports print (`scalar`, `sse4.2`, `avx2`).
    pub fn name(&self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse42 => "sse4.2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The host's [`SimdLevel`], as CPUID reports it.
pub fn level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        if is_x86_feature_detected!("sse4.2") {
            return SimdLevel::Sse42;
        }
    }
    SimdLevel::Scalar
}
