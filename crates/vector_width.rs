//! The vector width a base library runs its loops at: one CPU-feature
//! dispatch point.
//!
//! `vectormath`, `imagelib` and `dataframe` each compile this file as a
//! private module of their own (`#[path]`), so each library keeps its
//! own dispatch point, as three vendors' libraries would, while the
//! feature sets are written once.
//!
//! A loop runs inside [`Width::run`], which calls it from a function
//! compiled for one instruction set, so a loop inlined into it is
//! compiled that wide: AVX-512 as x86-64-v4 has it (F, BW, CD, DQ and
//! VL), AVX2, or the baseline target (SSE2 on x86-64). The libraries'
//! loops are branch-free IEEE adds, multiplies, divides, square roots,
//! compares and selects, and although the AVX-512 arm has FMA
//! instructions, Rust never contracts a multiply and an add into one,
//! so an output's bits do not depend on the arm. (Which operand's NaN
//! an operation on two NaNs returns is left unspecified by Rust, and
//! the arms may pick differently.)

/// An arm of the dispatch the running CPU has: the instruction set a
/// loop is compiled for. Only [`Width::available`] and [`Width::host`]
/// make one, each from the CPU's features, so a `Width` is proof that
/// the CPU can run it.
///
/// Public only so that tests can run each arm the host has through the
/// library's hidden `_at` entry points and compare their bits.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Width(Arm);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arm {
    Baseline,
    Avx2,
    Avx512,
}

impl Width {
    /// Every arm the running CPU has, narrowest first.
    pub fn available() -> Vec<Width> {
        [Arm::Baseline, Arm::Avx2, Arm::Avx512]
            .into_iter()
            .filter(|a| a.detected())
            .map(Width)
            .collect()
    }

    /// The widest arm the running CPU has: the one the library runs.
    pub(crate) fn host() -> Width {
        let widest = [Arm::Avx512, Arm::Avx2].into_iter().find(|a| a.detected());
        Width(widest.unwrap_or(Arm::Baseline))
    }

    /// Run `f` compiled for this arm: a loop in an `#[inline(always)]`
    /// `f` compiles to its width.
    #[inline(always)]
    pub(crate) fn run<R>(self, f: impl FnOnce() -> R) -> R {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512 => {
                // SAFETY: a `Width` holds only an arm the CPU has.
                unsafe { avx512(f) }
            }
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2 => {
                // SAFETY: as above.
                unsafe { avx2(f) }
            }
            _ => f(),
        }
    }
}

impl Arm {
    fn detected(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                Arm::Baseline => true,
                Arm::Avx2 => has!("avx2"),
                Arm::Avx512 => {
                    has!("avx2")
                        && has!("avx512f")
                        && has!("avx512bw")
                        && has!("avx512cd")
                        && has!("avx512dq")
                        && has!("avx512vl")
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Arm::Baseline
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512bw,avx512cd,avx512dq,avx512vl")]
fn avx512<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}
