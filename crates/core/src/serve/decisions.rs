//! The decision-cache warm start: a service's cached decisions written to,
//! and read back from, a versioned line-oriented text file.

use super::decide::{CachedDecision, Table};
use super::OracleService;
use crate::cache::CacheKey;
use crate::tuner::{TuneDecision, TuningCost};
use crate::{OracleError, Result};
use morpheus::format::FormatId;
use morpheus_machine::Op;
use morpheus_ml::serialize::LineParser;
use std::collections::HashSet;
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
    /// into the decision cache, returning how many were inserted (0 when
    /// caching is disabled). A key the cache already holds keeps its entry —
    /// with the plan and the horizon it carries — so importing over a live
    /// service inserts only what it lacks. The file must have been exported for an engine
    /// with the same fingerprint — decisions are engine-specific, so a
    /// mismatch is [`OracleError::ModelMismatch`], not a silent merge.
    /// Malformed input, a key repeated within the file included (an export
    /// never writes one), is rejected before anything is inserted.
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
        let mut seen = HashSet::new();
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
            let key = CacheKey { structure, scalar_bytes, engine, op };
            if !seen.insert(key) {
                return Err(lines.err(format!("repeated decision for '{}'", toks[1..4].join(" "))));
            }
            parsed.push((key, TuneDecision { format, params, op, cost: TuningCost::default() }));
        }
        let toks = lines.next_line()?.ok_or_else(|| lines.err("expected 'end', got EOF"))?;
        if toks != ["end"] {
            return Err(lines.err(format!("expected 'end', got '{}'", toks.join(" "))));
        }
        // The file carries no horizon: a per-call tune converts.
        let generation = self.generations();
        let inserted = parsed.into_iter().filter(|&(key, decision)| {
            self.store(Table::Decisions, key, CachedDecision::new(decision, None), generation, false)
        });
        Ok(inserted.count())
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

#[cfg(test)]
mod tests {
    use crate::serve::tests::{make_service, tridiag};
    use crate::tuner::RunFirstTuner;
    use crate::{Oracle, OracleError};
    use morpheus_machine::{systems, Backend, VirtualEngine};

    #[test]
    fn import_rejects_wrong_engine_and_malformed_files() {
        let service = make_service(2);
        let mut m = tridiag(500);
        service.tune(&mut m).unwrap();
        let mut buf = Vec::new();
        service.export_decisions(&mut buf).unwrap();

        let other_engine = Oracle::builder()
            .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
            .tuner(RunFirstTuner::new(2))
            .build_service()
            .unwrap();
        assert!(matches!(
            other_engine.import_decisions(std::io::Cursor::new(&buf)),
            Err(OracleError::ModelMismatch(_))
        ));

        for bad in [
            "",
            "wrong-magic v1\n",
            "morpheus-oracle-decisions v9\n",
            "morpheus-oracle-decisions v1\nengine zz\n",
            "morpheus-oracle-decisions v1\nengine 0\nentries 1\nend\n",
            "morpheus-oracle-decisions v1\nengine 0\nentries 1\ndecision 1 8 spmv XYZ\nend\n",
            "morpheus-oracle-decisions v1\nengine 0\nentries 1\ndecision 1 8 spmq CSR\nend\n",
            "morpheus-oracle-decisions v1\nengine 0\nentries 1\ndecision 1 8 spmv CSR\n",
            // v2 lines must carry a params token, and it must parse.
            "morpheus-oracle-decisions v2\nengine 0\nentries 1\ndecision 1 8 spmv CSR\nend\n",
            "morpheus-oracle-decisions v2\nengine 0\nentries 1\ndecision 1 8 spmv CSR bogus\nend\n",
        ] {
            assert!(service.import_decisions(std::io::Cursor::new(bad)).is_err(), "accepted: {bad:?}");
        }
    }

    /// Files written under format v1 (no params token) or v2 are keyed by
    /// the structure hash this version superseded: importing one is a typed
    /// refusal naming the scheme, and inserts nothing.
    #[test]
    fn v1_and_v2_decisions_files_are_refused() {
        let service = make_service(2);
        let mut a = tridiag(800);
        service.tune(&mut a).unwrap();
        let mut buf = Vec::new();
        service.export_decisions(&mut buf).unwrap();
        let v3 = String::from_utf8(buf).unwrap();

        // The export downgraded to each older wire format: old header, and
        // for v1 no trailing params token on decision lines.
        let downgrade = |version: &str| {
            let lines = v3.lines().map(|l| {
                if l.starts_with("morpheus-oracle-decisions") {
                    format!("morpheus-oracle-decisions {version}")
                } else if l.starts_with("decision ") && version == "v1" {
                    l.rsplit_once(' ').unwrap().0.to_string()
                } else {
                    l.to_string()
                }
            });
            lines.collect::<Vec<_>>().join("\n") + "\n"
        };
        for version in ["v1", "v2"] {
            let restarted = make_service(2);
            let err =
                restarted.import_decisions(std::io::Cursor::new(downgrade(version).as_bytes())).unwrap_err();
            assert!(
                matches!(&err, OracleError::InvalidConfig(why) if why.contains(version) && why.contains("structure hash")),
                "{version}: {err}"
            );
            assert_eq!(restarted.cache_stats().len, 0, "{version}: a refused file inserts nothing");
            let mut a2 = tridiag(800);
            assert!(!restarted.tune(&mut a2).unwrap().cache_hit);
        }
        // The current version of the same file does warm-start.
        let restarted = make_service(2);
        assert!(restarted.import_decisions(std::io::Cursor::new(v3.as_bytes())).unwrap() >= 1);
        assert!(restarted.tune(&mut tridiag(800)).unwrap().cache_hit);
    }

    /// The line checks the malformed-file cases above make under their old
    /// headers, under the current one: a decision line carries a params
    /// token, and it must parse — HYB's split and DIA's fill are conversion
    /// options, not tokens. A refused file inserts nothing.
    #[test]
    fn current_version_lines_must_carry_a_parsable_params_token() {
        let service = make_service(2);
        let engine = format!("{:016x}", service.engine_fingerprint);
        // A valid line first: a refused file inserts that one neither.
        let head =
            format!("morpheus-oracle-decisions v3\nengine {engine}\nentries 2\ndecision 5 8 spmv CSR -");
        for line in [
            "decision 1 8 spmv CSR",
            "decision 1 8 spmv CSR bogus",
            "decision 1 8 spmq CSR -",
            "decision 2 8 spmv HYB hyb=12",
            "decision 3 8 spmv DIA dia=40",
            "decision 4 8 spmv BELL bell=3;hyb=2",
        ] {
            let file = format!("{head}\n{line}\nend\n");
            let err = service.import_decisions(std::io::Cursor::new(file.as_bytes())).unwrap_err();
            assert!(matches!(err, OracleError::InvalidConfig(_)), "{line}: {err}");
            assert_eq!(service.cache_stats().len, 0, "{line}: a refused file inserts nothing");
        }
        let file = format!(
            "morpheus-oracle-decisions v3\nengine {engine}\nentries 1\ndecision 1 8 spmv CSR -\nend\n"
        );
        assert_eq!(service.import_decisions(std::io::Cursor::new(file.as_bytes())).unwrap(), 1);
    }
}
