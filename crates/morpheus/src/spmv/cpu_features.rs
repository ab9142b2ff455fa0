//! Runtime ISA detection for the two BELL loops with two forms: the slice
//! walker ([`crate::spmv::bell`]) and the fill that builds the buckets
//! (`crate::bell::fill`, behind every CSR/COO→BELL, ELL and HYB conversion)
//! each have a portable body and AVX2 ones, and pick between them by
//! [`CpuFeatures::detect`]. Every other kernel and builder has exactly one
//! body.

use std::sync::OnceLock;

/// The ISA features the BELL walker and fill can use, detected once per
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuFeatures {
    /// AVX2 available (256-bit integer/FP lanes, 32- and 64-bit-index
    /// gathers).
    pub avx2: bool,
    /// FMA3 available (reported with the environment; no kernel fuses —
    /// products are rounded before they are added, which is what keeps
    /// every body bitwise the serial one).
    pub fma: bool,
}

static DETECTED: OnceLock<CpuFeatures> = OnceLock::new();

impl CpuFeatures {
    /// Runtime detection, cached for the process lifetime.
    pub fn detect() -> CpuFeatures {
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                CpuFeatures {
                    avx2: std::arch::is_x86_feature_detected!("avx2"),
                    fma: std::arch::is_x86_feature_detected!("fma"),
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                CpuFeatures::none()
            }
        })
    }

    /// No ISA extensions — the portable-fallback feature set.
    pub fn none() -> CpuFeatures {
        CpuFeatures { avx2: false, fma: false }
    }
}

/// Reinterprets `&[V]` as `&[T]` once `TypeId` equality is established.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn cast_slice<V: 'static, T: 'static>(s: &[V]) -> &[T] {
    debug_assert_eq!(std::any::TypeId::of::<V>(), std::any::TypeId::of::<T>());
    // SAFETY: V and T are the same type (checked by the caller's TypeId
    // guard), so layout and validity are identical.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const T, s.len()) }
}

/// Reinterprets `&mut [V]` as `&mut [T]` once `TypeId` equality is
/// established.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn cast_slice_mut<V: 'static, T: 'static>(s: &mut [V]) -> &mut [T] {
    debug_assert_eq!(std::any::TypeId::of::<V>(), std::any::TypeId::of::<T>());
    // SAFETY: V and T are the same type (checked by the caller's TypeId
    // guard); the exclusive borrow moves into the result.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr() as *mut T, s.len()) }
}
