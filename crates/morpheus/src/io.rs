//! MatrixMarket (`.mtx`) I/O.
//!
//! The paper's dataset is "~2200 real-valued, square matrices ... available
//! from the SuiteSparse Collection", which distributes MatrixMarket files.
//! This module reads and writes the coordinate flavour so real SuiteSparse
//! matrices can be dropped into the pipeline in place of (or alongside) the
//! synthetic corpus.

use std::io::{BufRead, Write};

use crate::builder::CooBuilder;
use crate::coo::CooMatrix;
use crate::error::MorpheusError;
use crate::scalar::Scalar;
use crate::Result;

/// Symmetry qualifier of a MatrixMarket file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Value field of a MatrixMarket file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

/// Reads a MatrixMarket coordinate matrix into COO form.
///
/// Supports `real`, `integer` and `pattern` fields (pattern entries get the
/// value 1) and `general`, `symmetric` and `skew-symmetric` qualifiers
/// (symmetric halves are expanded; skew diagonals are rejected per the
/// standard). `complex` matrices are rejected — the paper's dataset is
/// real-valued. Every entry line must end in a newline: a file cut inside
/// its last value (`1.5e0` → `1.5`) would otherwise parse as a different
/// matrix.
pub fn read_matrix_market<V: Scalar, R: BufRead>(mut reader: R) -> Result<CooMatrix<V>> {
    // Lines with their terminator, so an entry line cut short is seen.
    let mut lines = std::iter::from_fn(move || {
        let mut line = String::new();
        reader.read_line(&mut line).map(|n| (n > 0).then_some(line)).transpose()
    })
    .enumerate();

    // Header line.
    let (mut lineno, header) = loop {
        match lines.next() {
            Some((n, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (n + 1, line);
                }
            }
            None => return Err(MorpheusError::Parse { line: 0, msg: "empty file".into() }),
        }
    };
    let tokens: Vec<String> = header.split_whitespace().map(|t| t.to_ascii_lowercase()).collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(MorpheusError::Parse {
            line: lineno,
            msg: format!("not a MatrixMarket header: {}", header.trim_end()),
        });
    }
    if tokens[2] != "coordinate" {
        return Err(MorpheusError::Parse {
            line: lineno,
            msg: format!("unsupported format '{}' (only 'coordinate' is supported)", tokens[2]),
        });
    }
    let field = match tokens[3].as_str() {
        "real" | "double" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => {
            return Err(MorpheusError::Parse { line: lineno, msg: format!("unsupported field '{other}'") })
        }
    };
    let symmetry = match tokens[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => {
            return Err(MorpheusError::Parse { line: lineno, msg: format!("unsupported symmetry '{other}'") })
        }
    };

    // Size line (skipping comments).
    let (nrows, ncols, declared_nnz) = loop {
        let (n, line) =
            lines.next().ok_or(MorpheusError::Parse { line: lineno, msg: "missing size line".into() })?;
        lineno = n + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(MorpheusError::Parse { line: lineno, msg: format!("bad size line: {t}") });
        }
        let parse = |s: &str| -> Result<usize> {
            s.parse().map_err(|_| MorpheusError::Parse { line: lineno, msg: format!("bad integer '{s}'") })
        };
        break (parse(parts[0])?, parse(parts[1])?, parse(parts[2])?);
    };

    // Grown as the entries are read: the declared count is checked against
    // them below, never trusted to size an allocation.
    let mut builder = CooBuilder::<V>::new(nrows, ncols);
    let mut seen = 0usize;
    for (n, line) in lines {
        lineno = n + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        if !line.ends_with('\n') {
            return Err(MorpheusError::Parse { line: lineno, msg: format!("unterminated entry line: {t}") });
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        let expected_fields = match field {
            Field::Pattern => 2,
            _ => 3,
        };
        if parts.len() < expected_fields {
            return Err(MorpheusError::Parse { line: lineno, msg: format!("bad entry line: {t}") });
        }
        let r: usize = parts[0].parse().map_err(|_| MorpheusError::Parse {
            line: lineno,
            msg: format!("bad row index '{}'", parts[0]),
        })?;
        let c: usize = parts[1].parse().map_err(|_| MorpheusError::Parse {
            line: lineno,
            msg: format!("bad col index '{}'", parts[1]),
        })?;
        if r == 0 || c == 0 {
            return Err(MorpheusError::Parse {
                line: lineno,
                msg: "MatrixMarket indices are 1-based".into(),
            });
        }
        let v = match field {
            Field::Pattern => 1.0,
            _ => parts[2].parse::<f64>().map_err(|_| MorpheusError::Parse {
                line: lineno,
                msg: format!("bad value '{}'", parts[2]),
            })?,
        };
        let (r0, c0) = (r - 1, c - 1);
        builder.push(r0, c0, V::from_f64(v)).map_err(|_| MorpheusError::Parse {
            line: lineno,
            msg: format!("entry ({r}, {c}) outside declared shape {nrows}x{ncols}"),
        })?;
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric => {
                if r0 != c0 {
                    builder.push(c0, r0, V::from_f64(v)).expect("transposed entry in bounds");
                }
            }
            Symmetry::SkewSymmetric => {
                if r0 == c0 {
                    return Err(MorpheusError::Parse {
                        line: lineno,
                        msg: "skew-symmetric matrix with diagonal entry".into(),
                    });
                }
                builder.push(c0, r0, V::from_f64(-v)).expect("transposed entry in bounds");
            }
        }
        seen += 1;
    }
    if seen != declared_nnz {
        return Err(MorpheusError::Parse {
            line: lineno,
            msg: format!("declared {declared_nnz} entries but found {seen}"),
        });
    }
    Ok(builder.build())
}

/// Writes a COO matrix as a `general real coordinate` MatrixMarket file.
pub fn write_matrix_market<V: Scalar, W: Write>(mut writer: W, m: &CooMatrix<V>) -> Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by morpheus-rs")?;
    writeln!(writer, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(writer, "{} {} {:e}", r + 1, c + 1, v.to_f64())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn read_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 3\n\
                    1 1 2.5\n\
                    2 3 -1.0\n\
                    3 2 4.0\n";
        let m: CooMatrix<f64> = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.nnz(), 3);
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 0, 2.5), (1, 2, -1.0), (2, 1, 4.0)]);
    }

    #[test]
    fn read_symmetric_expands() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 1.0\n\
                    2 1 5.0\n";
        let m: CooMatrix<f64> = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(m.nnz(), 3);
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 0, 1.0), (0, 1, 5.0), (1, 0, 5.0)]);

        // SuiteSparse order: the lower triangle column by column, so the
        // expanded entries arrive with their rows out of order. Both files
        // must read bitwise as their row-major `general` expansion.
        let bits = |text: &str| -> Vec<(usize, usize, u64)> {
            let m: CooMatrix<f64> = read_matrix_market(Cursor::new(text)).unwrap();
            m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect()
        };
        let column_major = "%%MatrixMarket matrix coordinate real symmetric\n\
                            4 4 6\n\
                            1 1 4.0\n\
                            2 1 -1.5\n\
                            4 1 0.25\n\
                            2 2 3.0\n\
                            3 2 -2.0\n\
                            4 4 5.5\n";
        let expanded = "%%MatrixMarket matrix coordinate real general\n\
                        4 4 9\n\
                        1 1 4.0\n\
                        1 2 -1.5\n\
                        1 4 0.25\n\
                        2 1 -1.5\n\
                        2 2 3.0\n\
                        2 3 -2.0\n\
                        3 2 -2.0\n\
                        4 1 0.25\n\
                        4 4 5.5\n";
        assert_eq!(bits(column_major), bits(expanded));
        assert_eq!(bits(column_major).len(), 9);

        // A repeated entry is summed in file order: 1e16 + 1 - 1e16 is 0,
        // where adding the 1 last would give 1.
        let repeated = "%%MatrixMarket matrix coordinate real symmetric\n\
                        3 3 5\n\
                        3 1 1e16\n\
                        2 2 7.0\n\
                        3 1 1.0\n\
                        3 2 2.0\n\
                        3 1 -1e16\n";
        let expanded = "%%MatrixMarket matrix coordinate real general\n\
                        3 3 9\n\
                        1 3 1e16\n\
                        1 3 1.0\n\
                        1 3 -1e16\n\
                        2 2 7.0\n\
                        2 3 2.0\n\
                        3 1 1e16\n\
                        3 1 1.0\n\
                        3 1 -1e16\n\
                        3 2 2.0\n";
        assert_eq!(bits(repeated), bits(expanded));
        let zero = 0f64.to_bits();
        assert_eq!(
            bits(repeated),
            vec![
                (0, 2, zero),
                (1, 1, 7f64.to_bits()),
                (1, 2, 2f64.to_bits()),
                (2, 0, zero),
                (2, 1, 2f64.to_bits())
            ]
        );
    }

    #[test]
    fn read_skew_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 1\n\
                    2 1 3.0\n";
        let m: CooMatrix<f64> = read_matrix_market(Cursor::new(text)).unwrap();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 1, -3.0), (1, 0, 3.0)]);
    }

    #[test]
    fn read_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n\
                    1 2\n\
                    2 1\n";
        let m: CooMatrix<f64> = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(m.nnz(), 2);
        assert!(m.iter().all(|(_, _, v)| v == 1.0));
    }

    #[test]
    fn rejects_malformed() {
        let cases = [
            ("", "empty"),
            ("%%MatrixMarket matrix array real general\n2 2 4\n", "array format"),
            ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n", "complex"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 5.0\n", "0-based"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n", "count mismatch"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5.0\n", "out of bounds"),
            ("%%MatrixMarket matrix coordinate real general\nnot a size line\n", "bad size"),
            ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n1 1 2.0\n", "skew diagonal"),
        ];
        for (text, why) in cases {
            let r: Result<CooMatrix<f64>> = read_matrix_market(Cursor::new(text));
            assert!(r.is_err(), "expected failure: {why}");
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let m = crate::test_util::random_coo::<f64>(20, 17, 60, 5);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &m).unwrap();
        let back: CooMatrix<f64> = read_matrix_market(Cursor::new(buf)).unwrap();
        assert_eq!(back.nrows(), m.nrows());
        assert_eq!(back.ncols(), m.ncols());
        assert_eq!(back.nnz(), m.nnz());
        for ((r1, c1, v1), (r2, c2, v2)) in m.iter().zip(back.iter()) {
            assert_eq!((r1, c1), (r2, c2));
            assert!((v1 - v2).abs() < 1e-12 * (1.0 + v1.abs()));
        }
    }
}
