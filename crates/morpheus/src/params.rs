//! Per-matrix format parameters.
//!
//! The paper's tuner treats format selection as classification over a fixed
//! enum; AlphaSparse-style systems treat a format's layout *parameters* as
//! part of the same choice. `FormatParams` is that layout: block dimensions
//! for BSR and the bucket-width ladder for BELL. Defaults reproduce the
//! historical fixed heuristics; the Oracle proposes values per matrix with
//! each decision (`morpheus-oracle`'s `propose_params`), and
//! [`crate::ConvertOptions::params`] carries them into conversion. HYB's
//! split width and DIA's fill threshold are not parameters of a decision:
//! they are [`crate::ConvertOptions::hyb_split`] and
//! [`crate::ConvertOptions::max_fill`].

use crate::bsr::BSR_BLOCK_DIMS;

/// Maximum explicit BELL bucket widths carried in a parameter vector
/// (`0` slots are unused; all-zero means the automatic power-of-two ladder).
pub const MAX_BELL_WIDTHS: usize = 8;

/// A matrix's layout parameters, proposed per matrix or left at the fixed
/// heuristic defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormatParams {
    /// BSR block dimensions `(rows, cols)`; each in `{2, 4, 8}`.
    pub bsr_block: (usize, usize),
    /// BELL bucket width ladder, ascending, zero-terminated; all zeros
    /// selects [`crate::bell::default_bucket_widths`].
    pub bell_widths: [usize; MAX_BELL_WIDTHS],
}

impl Default for FormatParams {
    fn default() -> Self {
        FormatParams { bsr_block: (4, 4), bell_widths: [0; MAX_BELL_WIDTHS] }
    }
}

impl FormatParams {
    /// `true` when every field is at its fixed-heuristic default.
    pub fn is_default(&self) -> bool {
        *self == FormatParams::default()
    }

    /// The explicit BELL ladder, or an empty slice for the automatic one.
    pub fn bell_ladder(&self) -> &[usize] {
        let n = self.bell_widths.iter().position(|&w| w == 0).unwrap_or(MAX_BELL_WIDTHS);
        &self.bell_widths[..n]
    }

    /// Builds a parameter vector with an explicit BELL ladder (truncated to
    /// [`MAX_BELL_WIDTHS`] entries).
    pub fn with_bell_ladder(mut self, widths: &[usize]) -> Self {
        self.bell_widths = [0; MAX_BELL_WIDTHS];
        for (slot, &w) in self.bell_widths.iter_mut().zip(widths) {
            *slot = w;
        }
        self
    }

    /// A compact code identifying this parameterization for telemetry keys
    /// (0 = defaults). Distinct parameterizations of the same format must
    /// not alias in the adaptive sample ring, so the code folds every
    /// field; it is *not* reversible.
    pub fn code(&self) -> u8 {
        if self.is_default() {
            return 0;
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |w: u64| {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.bsr_block.0 as u64);
        mix(self.bsr_block.1 as u64);
        for &w in &self.bell_widths {
            mix(w as u64);
        }
        // Fold to 7 bits, avoiding the reserved 0.
        (h % 127) as u8 + 1
    }

    /// Serializes to the single-token text form used by versioned decision
    /// exports: `-` for the defaults, otherwise `;`-joined `key=value`
    /// fields (`bsr=RxC`, `bell=w1,w2,...`). Inverse of
    /// [`FormatParams::parse_token`].
    pub fn to_token(&self) -> String {
        if self.is_default() {
            return "-".to_string();
        }
        let mut parts = Vec::new();
        if self.bsr_block != FormatParams::default().bsr_block {
            parts.push(format!("bsr={}x{}", self.bsr_block.0, self.bsr_block.1));
        }
        let ladder = self.bell_ladder();
        if !ladder.is_empty() {
            let ws: Vec<String> = ladder.iter().map(|w| w.to_string()).collect();
            parts.push(format!("bell={}", ws.join(",")));
        }
        parts.join(";")
    }

    /// Parses [`FormatParams::to_token`] output (`None` on malformed input,
    /// including a key other than `bsr` and `bell`).
    pub fn parse_token(tok: &str) -> Option<Self> {
        if tok == "-" {
            return Some(FormatParams::default());
        }
        let mut p = FormatParams::default();
        for part in tok.split(';') {
            let (key, val) = part.split_once('=')?;
            match key {
                "bsr" => {
                    let (r, c) = val.split_once('x')?;
                    p.bsr_block = (r.parse().ok()?, c.parse().ok()?);
                }
                "bell" => {
                    let mut widths = [0usize; MAX_BELL_WIDTHS];
                    for (n, w) in val.split(',').enumerate() {
                        if n >= MAX_BELL_WIDTHS {
                            return None;
                        }
                        widths[n] = w.parse().ok()?;
                    }
                    p.bell_widths = widths;
                }
                _ => return None,
            }
        }
        Some(p)
    }

    /// Clamps the block dims to the supported set (nearest allowed dim).
    pub fn normalized_block(&self) -> (usize, usize) {
        let snap = |d: usize| {
            *BSR_BLOCK_DIMS.iter().min_by_key(|&&b| (b as isize - d as isize).unsigned_abs()).unwrap_or(&4)
        };
        (snap(self.bsr_block.0), snap(self.bsr_block.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_default() {
        let p = FormatParams::default();
        assert!(p.is_default());
        assert_eq!(p.code(), 0);
        assert_eq!(p.bell_ladder(), &[] as &[usize]);
        assert_eq!(p.normalized_block(), (4, 4));
    }

    #[test]
    fn ladder_roundtrip() {
        let p = FormatParams::default().with_bell_ladder(&[2, 8, 32]);
        assert_eq!(p.bell_ladder(), &[2, 8, 32]);
        assert!(!p.is_default());
        assert_ne!(p.code(), 0);
    }

    #[test]
    fn codes_distinguish_parameterizations() {
        let a = FormatParams { bsr_block: (2, 2), ..Default::default() };
        let b = FormatParams { bsr_block: (8, 8), ..Default::default() };
        let c = FormatParams::default().with_bell_ladder(&[9]);
        assert_ne!(a.code(), 0);
        assert_ne!(a.code(), b.code());
        assert_ne!(a.code(), c.code());
    }

    #[test]
    fn token_roundtrip_preserves_every_field() {
        let cases = [
            FormatParams::default(),
            FormatParams { bsr_block: (2, 8), ..Default::default() },
            FormatParams::default().with_bell_ladder(&[1, 4, 16, 64]),
            FormatParams { bsr_block: (8, 2), ..FormatParams::default().with_bell_ladder(&[2, 32]) },
        ];
        for p in cases {
            let tok = p.to_token();
            assert!(!tok.contains(' '), "token must be whitespace-free: {tok}");
            assert_eq!(FormatParams::parse_token(&tok), Some(p), "{tok}");
        }
        assert_eq!(FormatParams::default().to_token(), "-");
        assert_eq!(FormatParams::parse_token("bogus"), None);
        assert_eq!(FormatParams::parse_token("bsr=9"), None);
        // HYB's split and DIA's fill are conversion options, not parameters.
        for tok in ["hyb=12", "dia=3.25", "bell=2,32;hyb=7"] {
            assert_eq!(FormatParams::parse_token(tok), None, "{tok}");
        }
    }

    #[test]
    fn block_normalization_snaps_to_allowed_dims() {
        let p = FormatParams { bsr_block: (3, 100), ..Default::default() };
        let (r, c) = p.normalized_block();
        assert!(BSR_BLOCK_DIMS.contains(&r) && BSR_BLOCK_DIMS.contains(&c));
        assert_eq!((r, c), (2, 8));
    }
}
