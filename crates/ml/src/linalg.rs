//! Minimal dense linear algebra: row-major matrices and vector helpers.

use rand::rngs::StdRng;
use rand::Rng;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major data, `rows * cols` long.
    pub data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier/Glorot-uniform initialization.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        Matrix {
            rows,
            cols,
            data: (0..rows * cols)
                .map(|_| rng.gen_range(-bound..bound))
                .collect(),
        }
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `y = A x` (matrix–vector product).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.cols);
        (0..self.rows).map(|r| dot(self.row(r), x)).collect()
    }
}

/// Dot product.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Tile edge of [`gemm_acc`]; the rows it reads from its right operand
/// are padded to a multiple of it.
pub(crate) const PAD: usize = 4;

/// `n` rounded up to a multiple of [`PAD`].
#[inline]
pub(crate) fn padded(n: usize) -> usize {
    n.div_ceil(PAD) * PAD
}

/// `c[i][j] += Σ_t a(i, t) · b[t][j]` for `i < m`, `j < n`, `t < k`.
///
/// - `a(i, t) = a[i·ai + t·at]`, with either `at == 1` (rows of `a` are
///   contiguous) or `ai == 1` (then `at ≥ padded(m)`);
/// - row `t` of `b` starts at `b[t·ldb]` and is read `padded(n)` wide;
/// - row `i` of `c` starts at `c[i·ldc]`.
///
/// Column form: every `c[i][j]` starts from its current value and adds its
/// terms one at a time in ascending `t` — the order of a dot product or a
/// sample-by-sample gradient sum, so the bits are those of the scalar loop
/// (no reassociation; Rust never contracts to FMA). The loops run over
/// tiles of up to 16 accumulators that stay in registers; a tile that
/// reaches past `n` computes the cells outside and drops them.
pub(crate) fn gemm_acc(
    (m, n, k): (usize, usize, usize),
    (a, ai, at): (&[f64], usize, usize),
    (b, ldb): (&[f64], usize),
    (c, ldc): (&mut [f64], usize),
) {
    assert!(ai == 1 || at == 1, "one axis of `a` is contiguous");
    if k == 0 {
        return;
    }
    let op = Operands {
        k,
        a,
        ai,
        at,
        b,
        ldb,
    };
    // Pairs of rows by 8 columns while both fit, 4 columns at the right
    // edge; a last odd row alone, by up to 16 columns.
    let pairs = m - m % 2;
    for i0 in (0..pairs).step_by(2) {
        let mut j0 = 0;
        while j0 < n {
            if j0 + 2 * PAD <= padded(n) {
                op.tile::<2, { 2 * PAD }>(i0, j0, n, c, ldc);
                j0 += 2 * PAD;
            } else {
                op.tile::<2, PAD>(i0, j0, n, c, ldc);
                j0 += PAD;
            }
        }
    }
    for i0 in pairs..m {
        let mut j0 = 0;
        while j0 < n {
            if j0 + 4 * PAD <= padded(n) {
                op.tile::<1, { 4 * PAD }>(i0, j0, n, c, ldc);
                j0 += 4 * PAD;
            } else {
                op.tile::<1, PAD>(i0, j0, n, c, ldc);
                j0 += PAD;
            }
        }
    }
}

/// The read-only operands of [`gemm_acc`].
struct Operands<'a> {
    k: usize,
    a: &'a [f64],
    ai: usize,
    at: usize,
    b: &'a [f64],
    ldb: usize,
}

impl Operands<'_> {
    /// The `MI × NJ` tile of `c` at `(i0, j0)`, clipped to `n` columns:
    /// `MI` rows of `a` against `NJ` columns of `b`.
    #[inline(always)]
    fn tile<const MI: usize, const NJ: usize>(
        &self,
        i0: usize,
        j0: usize,
        n: usize,
        c: &mut [f64],
        ldc: usize,
    ) {
        let nj = (n - j0).min(NJ);
        let mut acc = [[0.0; NJ]; MI];
        for (ii, acc) in acc.iter_mut().enumerate() {
            let row = &c[(i0 + ii) * ldc + j0..];
            if nj == NJ {
                *acc = row[..NJ].try_into().expect("NJ wide");
            } else {
                acc[..nj].copy_from_slice(&row[..nj]);
            }
        }
        let b_rows = self.b[j0..].chunks(self.ldb).take(self.k);
        if self.at == 1 {
            let rows: [&[f64]; MI] =
                std::array::from_fn(|ii| &self.a[(i0 + ii) * self.ai..][..self.k]);
            let mut b_rows = b_rows;
            for t in 0..self.k {
                let x: [f64; MI] = std::array::from_fn(|ii| rows[ii][t]);
                tile_step(&mut acc, x, b_rows.next().expect("k rows of b"));
            }
        } else {
            for (ac, bt) in self.a[i0..].chunks(self.at).zip(b_rows) {
                tile_step(&mut acc, ac[..MI].try_into().expect("MI wide"), bt);
            }
        }
        for (ii, acc) in acc.iter().enumerate() {
            let row = &mut c[(i0 + ii) * ldc + j0..];
            if nj == NJ {
                row[..NJ].copy_from_slice(acc);
            } else {
                row[..nj].copy_from_slice(&acc[..nj]);
            }
        }
    }
}

/// `acc[i][j] += x[i] · b[j]`.
#[inline(always)]
fn tile_step<const MI: usize, const NJ: usize>(acc: &mut [[f64; NJ]; MI], x: [f64; MI], b: &[f64]) {
    let b: &[f64; NJ] = b[..NJ].try_into().expect("NJ wide");
    for i in 0..MI {
        for j in 0..NJ {
            acc[i][j] += x[i] * b[j];
        }
    }
}

/// Solve the square linear system `A x = b` by Gaussian elimination with
/// partial pivoting. Returns `None` when `A` is (numerically) singular.
/// Used by ridge regression and QuickSel's mixture-weight fit; systems are
/// small (≤ a few hundred unknowns).
pub fn solve(mut a: Matrix, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = a.rows;
    if a.cols != n || b.len() != n {
        return None;
    }
    for col in 0..n {
        // Pivot.
        let pivot =
            (col..n).max_by(|&i, &j| a.get(i, col).abs().total_cmp(&a.get(j, col).abs()))?;
        if a.get(pivot, col).abs() < 1e-12 {
            return None;
        }
        if pivot != col {
            for c in 0..n {
                let tmp = a.get(col, c);
                a.set(col, c, a.get(pivot, c));
                a.set(pivot, c, tmp);
            }
            b.swap(col, pivot);
        }
        // Eliminate below.
        for r in col + 1..n {
            let f = a.get(r, col) / a.get(col, col);
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                let v = a.get(r, c) - f * a.get(col, c);
                a.set(r, c, v);
            }
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut s = b[col];
        for c in col + 1..n {
            s -= a.get(col, c) * x[c];
        }
        x[col] = s / a.get(col, col);
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matvec_multiplies() {
        let mut a = Matrix::zeros(2, 3);
        a.set(0, 0, 1.0);
        a.set(0, 2, 2.0);
        a.set(1, 1, 3.0);
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
    }

    #[test]
    fn gemm_acc_matches_scalar_sums_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(3);
        let (m, n, k) = (5, 7, 9);
        let a = Matrix::xavier(m, k, &mut rng);
        let at = Matrix::xavier(k, padded(m), &mut rng);
        let b = Matrix::xavier(k, padded(n), &mut rng);
        let c0 = Matrix::xavier(m, n, &mut rng);
        // Both layouts of `a`: rows contiguous, and columns contiguous.
        for (data, ai, at_, get) in [
            (
                &a.data,
                k,
                1,
                &(|i, t| a.get(i, t)) as &dyn Fn(usize, usize) -> f64,
            ),
            (&at.data, 1, padded(m), &|i, t| at.get(t, i)),
        ] {
            let mut c = c0.clone();
            gemm_acc(
                (m, n, k),
                (data, ai, at_),
                (&b.data, padded(n)),
                (&mut c.data, n),
            );
            for i in 0..m {
                for j in 0..n {
                    let mut s = c0.get(i, j);
                    for t in 0..k {
                        s += get(i, t) * b.get(t, j);
                    }
                    assert_eq!(c.get(i, j).to_bits(), s.to_bits(), "({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn solve_known_system() {
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, 2.0);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 1, 3.0);
        let x = solve(a, vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn solve_singular_returns_none() {
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 4.0);
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_with_pivoting() {
        // Leading zero forces a row swap.
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        let x = solve(a, vec![2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Matrix::xavier(10, 20, &mut rng);
        let bound = (6.0 / 30.0f64).sqrt();
        assert!(a.data.iter().all(|&v| v.abs() <= bound));
        // Not all identical.
        assert!(a.data.iter().any(|&v| v != a.data[0]));
    }
}
