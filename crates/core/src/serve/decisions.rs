//! The decision-cache warm start: a service's cached decisions written to,
//! and read back from, a versioned line-oriented text file.

use super::{CachedDecision, OracleService};
use crate::cache::CacheKey;
use crate::tuner::{TuneDecision, TuningCost};
use crate::{OracleError, Result};
use morpheus::format::FormatId;
use morpheus_machine::Op;
use morpheus_ml::serialize::LineParser;
use std::io::{BufRead, Write};

impl<T> OracleService<T> {
    /// Writes every cached decision in a versioned, line-oriented text
    /// format (the style of `morpheus-ml::serialize` model files), so a
    /// restarted service can [`import_decisions`](Self::import_decisions)
    /// and skip cold-path tuning for every structure this service has
    /// seen:
    ///
    /// ```text
    /// morpheus-oracle-decisions v3
    /// engine <fingerprint hex>
    /// entries <n>
    /// decision <structure hex> <scalar_bytes> <spmv|spmm:k> <FORMAT> <params>
    /// end
    /// ```
    ///
    /// The trailing `<params>` token is [`morpheus::FormatParams::to_token`]
    /// (`-` for the defaults). The version names the scheme of
    /// `<structure>` too: `v3` keys are the lane-parallel
    /// [`morpheus::DynamicMatrix::structure_hash`]; `v1`/`v2` files were keyed by the
    /// single-chain hash it replaced, and are refused on import.
    pub fn export_decisions<W: Write>(&self, w: &mut W) -> Result<()> {
        let mut entries: Vec<(CacheKey, TuneDecision)> = Vec::new();
        self.decisions.for_each(|k, d| entries.push((*k, d.decision)));
        // Deterministic output independent of shard iteration order.
        entries.sort_by_key(|(k, _)| (k.structure, k.scalar_bytes, k.op.name(), k.op.rhs_count()));
        writeln!(w, "{DECISIONS_MAGIC} {DECISIONS_VERSION}")?;
        writeln!(w, "engine {:016x}", self.engine_fingerprint)?;
        writeln!(w, "entries {}", entries.len())?;
        for (key, decision) in entries {
            let op = match key.op {
                Op::Spmv => "spmv".to_string(),
                Op::Spmm { k } => format!("spmm:{k}"),
            };
            writeln!(
                w,
                "decision {:016x} {} {op} {} {}",
                key.structure,
                key.scalar_bytes,
                decision.format.name(),
                decision.params.to_token()
            )?;
        }
        writeln!(w, "end")?;
        Ok(())
    }

    /// Loads decisions exported by [`export_decisions`](Self::export_decisions)
    /// into the decision cache, returning how many were inserted. The file
    /// must have been exported for an engine with the same fingerprint —
    /// decisions are engine-specific, so a mismatch is
    /// [`OracleError::ModelMismatch`], not a silent merge. Malformed input
    /// is rejected before anything is inserted.
    pub fn import_decisions<R: BufRead>(&self, reader: R) -> Result<usize> {
        let mut lines = DecisionLines { lines: LineParser::new(reader) };
        let header = lines.next_line()?.ok_or_else(|| lines.err("empty decisions file"))?;
        if header.len() != 2 || header[0] != DECISIONS_MAGIC {
            return Err(lines.err(format!("bad header: expected '{DECISIONS_MAGIC} {DECISIONS_VERSION}'")));
        }
        let version = header[1].as_str();
        if matches!(version, "v1" | "v2") {
            // Same line format (v1 without the params token), but keyed by
            // the structure hash this one superseded: no entry could ever
            // hit, and inserting them would only evict live ones.
            return Err(lines.err(format!(
                "decisions version '{version}' is keyed by the superseded single-chain structure hash; \
                 re-export from a service running this version ('{DECISIONS_VERSION}')"
            )));
        }
        if version != DECISIONS_VERSION {
            return Err(lines.err(format!("unsupported decisions version '{version}'")));
        }
        let engine = lines.expect_kv("engine")?;
        let engine = u64::from_str_radix(&engine, 16)
            .map_err(|_| lines.err(format!("bad engine fingerprint '{engine}'")))?;
        if engine != self.engine_fingerprint {
            return Err(OracleError::ModelMismatch(format!(
                "decisions were exported for engine {engine:016x}, this service is {:016x}",
                self.engine_fingerprint
            )));
        }
        let n: usize = {
            let v = lines.expect_kv("entries")?;
            v.parse().map_err(|_| lines.err(format!("bad entry count '{v}'")))?
        };
        // Grown as the entries are read: the count is checked against them,
        // never trusted to size an allocation.
        let mut parsed = Vec::new();
        for _ in 0..n {
            let toks = lines.next_line()?.ok_or_else(|| lines.err("expected 'decision ...', got EOF"))?;
            if toks.len() != 6 || toks[0] != "decision" {
                return Err(lines.err(format!(
                    "expected 'decision <structure> <scalar_bytes> <op> <format> <params>', got '{}'",
                    toks.join(" ")
                )));
            }
            let structure = u64::from_str_radix(&toks[1], 16)
                .map_err(|_| lines.err(format!("bad structure hash '{}'", toks[1])))?;
            let scalar_bytes: usize =
                toks[2].parse().map_err(|_| lines.err(format!("bad scalar width '{}'", toks[2])))?;
            let op = match toks[3].as_str() {
                "spmv" => Op::Spmv,
                other => match other.strip_prefix("spmm:").and_then(|k| k.parse::<usize>().ok()) {
                    Some(k) => Op::Spmm { k },
                    None => return Err(lines.err(format!("unknown op '{other}'"))),
                },
            };
            let format = FormatId::from_name(&toks[4])
                .ok_or_else(|| lines.err(format!("unknown format '{}'", toks[4])))?;
            let params = morpheus::FormatParams::parse_token(&toks[5])
                .ok_or_else(|| lines.err(format!("bad format parameters '{}'", toks[5])))?;
            parsed.push((
                CacheKey { structure, scalar_bytes, engine, op },
                TuneDecision { format, params, op, cost: TuningCost::default() },
            ));
        }
        let toks = lines.next_line()?.ok_or_else(|| lines.err("expected 'end', got EOF"))?;
        if toks != ["end"] {
            return Err(lines.err(format!("expected 'end', got '{}'", toks.join(" "))));
        }
        let count = parsed.len();
        for (key, decision) in parsed {
            self.decisions.insert(key, CachedDecision::new(decision));
        }
        Ok(count)
    }
}

const DECISIONS_MAGIC: &str = "morpheus-oracle-decisions";
const DECISIONS_VERSION: &str = "v3";

/// Decisions-format wrapper over the shared [`LineParser`] tokenizer (the
/// same one the model files use), mapping its line numbers into
/// [`OracleError`]s.
struct DecisionLines<R: BufRead> {
    lines: LineParser<R>,
}

impl<R: BufRead> DecisionLines<R> {
    fn next_line(&mut self) -> Result<Option<Vec<String>>> {
        Ok(self.lines.next_line()?)
    }

    fn err(&self, msg: impl Into<String>) -> OracleError {
        OracleError::InvalidConfig(format!("decisions file line {}: {}", self.lines.lineno(), msg.into()))
    }

    fn expect_kv(&mut self, key: &str) -> Result<String> {
        let toks = self.next_line()?.ok_or_else(|| self.err(format!("expected '{key} ...', got EOF")))?;
        if toks.len() != 2 || toks[0] != key {
            return Err(self.err(format!("expected '{key} <value>', got '{}'", toks.join(" "))));
        }
        Ok(toks[1].clone())
    }
}
