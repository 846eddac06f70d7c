//! Lookup-table storage and interpolation (paper §3.4.2).
//!
//! A table holds `rows × cols` precomputed values over `[lo, hi]` at step
//! `step`. Runtime reads interpolate between adjacent rows.
//!
//! The engine reads tables through [`LutData::interp_row`] only: per lane
//! one clamp, row index and fraction, then every requested column out of
//! the two (cubic: four) rows around the key — what both of openCARP's row
//! interpolators do. Its three modes ([`LutInterp`]) differ in how the
//! lanes are walked:
//!
//! * `Vec` — the paper's vectorized `LUT_interpRow_n_elements_vec`, column
//!   by column: index and fraction of all lanes first, then each column is
//!   gathered for all lanes, blended as vectors and stored as one
//!   contiguous register. The loop is plain indexed Rust inlined into the
//!   interpreter's dispatch arm; where the arm is compiled for AVX-512 the
//!   loads become `vgatherqpd`, elsewhere they stay indexed scalar loads
//!   (same bits — it is a load);
//! * `Scalar` — the original openCARP scalar `LUT_interpRow`, modeled as
//!   one non-inlined call per lane that finds the row and fraction once and
//!   blends every requested column (this is the code the paper found
//!   general compilers could not vectorize: the call stays opaque, so not
//!   even the `compiler-simd` configuration's W=8 kernel gathers);
//! * `Cubic` — Catmull–Rom over a four-row stencil, walked like `Vec`.
//!
//! The per-column functions ([`LutData::interp_block`],
//! [`LutData::interp_block_cubic`], [`LutData::interp_one`]) compute the
//! same values one column at a time; the native tier's callbacks, the
//! benchmark's probe and the row tests' oracles use them.
//!
//! A table's values are a slice and the owner that keeps it alive
//! (`Values`): the table's own vector when it was tabulated, or the
//! [`LutBytes`] of a table record when it was loaded — a read-only mapping of
//! the file, whose values are read where they lie, never copied. Every
//! reader sees a plain `&[f64]` either way.

use crate::bytecode::LutInterp;
use std::ptr::NonNull;
use std::sync::Arc;

// A loaded table's values are the little-endian words of its record, read
// in place as `f64`s.
#[cfg(target_endian = "big")]
compile_error!(
    "limpet-vm reads loaded lookup-table values in place as little-endian words; \
     big-endian targets are not supported"
);

/// The bytes of a table record that tables are read from in place: a
/// read-only mapping of the file, or a buffer it was read into. The first
/// byte is 8-aligned in memory, and every table read from them holds them
/// for as long as it lives.
pub type LutBytes = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// `bytes` as [`LutBytes`] of their own: where they lie when they start
/// 8-aligned, else copied to an offset of a buffer where they do.
pub fn lut_bytes(bytes: Vec<u8>) -> LutBytes {
    if (bytes.as_ptr() as usize).is_multiple_of(8) {
        return Arc::new(bytes);
    }
    let mut buf: Vec<u8> = Vec::with_capacity(bytes.len() + 7);
    let at = (buf.as_ptr() as usize).wrapping_neg() % 8;
    buf.resize(at, 0);
    buf.extend_from_slice(&bytes);
    Arc::new(Aligned(buf, at))
}

/// A buffer whose bytes from the offset on start 8-aligned.
struct Aligned(Vec<u8>, usize);

impl AsRef<[u8]> for Aligned {
    fn as_ref(&self) -> &[u8] {
        &self.0[self.1..]
    }
}

/// A table's values: a slice, and the owner that keeps its memory alive
/// and unchanged — the table's own vector, or the bytes of the record it
/// was read from in place.
#[derive(Clone)]
pub(crate) struct Values {
    ptr: NonNull<f64>,
    len: usize,
    _owner: Arc<dyn Send + Sync>,
}

// SAFETY: `ptr` and `len` only read memory `_owner` keeps alive and that
// no one writes while it lives (a vector no one can reach mutably behind
// its `Arc`, or bytes behind the `Arc` of a `Send + Sync` owner); sending
// or sharing a `Values` sends or shares an `Arc` of that owner, which is
// `Send` and `Sync`.
unsafe impl Send for Values {}
// SAFETY: as for `Send`.
unsafe impl Sync for Values {}

impl Values {
    /// The `len` values at byte offset `at` of `bytes`, read in place.
    ///
    /// # Errors
    ///
    /// Refuses a range outside `bytes` and values that are not 8-aligned in
    /// memory (which would not be `f64`s to read where they lie).
    pub(crate) fn shared(bytes: &LutBytes, at: usize, len: usize) -> Result<Values, String> {
        let all: &[u8] = (**bytes).as_ref();
        let block = len
            .checked_mul(8)
            .and_then(|n| all.get(at..at.checked_add(n)?))
            .ok_or_else(|| format!("{len} lut values at byte {at} lie outside the record"))?;
        if !(block.as_ptr() as usize).is_multiple_of(8) {
            return Err(format!(
                "lut values at byte {at} are not 8-aligned in memory"
            ));
        }
        Ok(Values {
            ptr: NonNull::from(block).cast(),
            len,
            _owner: Arc::clone(bytes) as _,
        })
    }
}

impl From<Vec<f64>> for Values {
    fn from(own: Vec<f64>) -> Values {
        let own = Arc::new(own);
        Values {
            ptr: NonNull::from(own.as_slice()).cast(),
            len: own.len(),
            _owner: own,
        }
    }
}

impl std::ops::Deref for Values {
    type Target = [f64];

    #[inline(always)]
    fn deref(&self) -> &[f64] {
        // SAFETY: `ptr` and `len` describe `len` aligned, initialised `f64`s
        // in memory `_owner` holds (a vector's heap buffer, or bytes checked
        // in range and aligned by `Values::shared`); nothing writes them
        // while `self` lives, and the slice lives no longer than the borrow
        // of `self`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl PartialEq for Values {
    fn eq(&self, other: &Values) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Values {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The most lanes one [`LutData::interp_row`] call interpolates: the size
/// of its two per-lane scratch arrays (the engine's widest dispatch is 32).
const ROW_LANES: usize = 64;

/// Whether two sets of tables are equal bit for bit: one slice, or the
/// same grids with the same bits in every value (`==` would refuse a NaN and
/// take `-0.0` for `0.0`).
pub fn same_luts(a: &[LutData], b: &[LutData]) -> bool {
    let grid = |t: &LutData| ([t.lo, t.hi, t.step].map(f64::to_bits), t.rows, t.cols);
    let same = |a: &LutData, b: &LutData| {
        grid(a) == grid(b)
            && a.data
                .iter()
                .zip(b.data.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    };
    std::ptr::eq(a, b) || (a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same(a, b)))
}

/// One precomputed lookup table.
///
/// # Examples
///
/// ```
/// use limpet_vm::LutData;
/// // Tabulate f(x) = 2x over [0, 10], one column.
/// let data = LutData::build(0.0, 10.0, 1.0, 1, |x, out| out[0] = 2.0 * x);
/// let mut keys = [2.5];
/// let mut out = [0.0];
/// data.interp_block(&keys, 0, &mut out);
/// assert!((out[0] - 5.0).abs() < 1e-12);
/// # let _ = &mut keys;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LutData {
    lo: f64,
    hi: f64,
    step: f64,
    inv_step: f64,
    rows: usize,
    cols: usize,
    /// Row-major: `data[row * cols + col]`.
    data: Values,
}

impl LutData {
    /// Builds a table by evaluating `fill(key, row)` for every tabulated
    /// key. `fill` writes one value per column into its output slice.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0`, `hi <= lo`, or `cols == 0`.
    pub fn build(
        lo: f64,
        hi: f64,
        step: f64,
        cols: usize,
        mut fill: impl FnMut(f64, &mut [f64]),
    ) -> LutData {
        assert!(step > 0.0 && hi > lo, "empty lookup range");
        assert!(cols > 0, "lookup table needs at least one column");
        let rows = ((hi - lo) / step).floor() as usize + 2;
        let mut data = vec![0.0; rows * cols];
        for row in 0..rows {
            let key = lo + row as f64 * step;
            fill(key, &mut data[row * cols..(row + 1) * cols]);
        }
        LutData {
            lo,
            hi,
            step,
            inv_step: 1.0 / step,
            rows,
            cols,
            data: data.into(),
        }
    }

    /// Reassembles a table from persisted parts — the disk-cache load
    /// path. `rows` is derived from `data.len() / cols` and must agree
    /// with what [`LutData::build`] would compute for `(lo, hi, step)`,
    /// so a stale or corrupted payload is rejected instead of silently
    /// interpolating over the wrong grid. `inv_step` is recomputed as
    /// `1.0 / step`, the same expression `build` uses, so a reassembled
    /// table interpolates bit-identically.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency (non-positive
    /// step, empty range, data length not matching the grid).
    pub fn from_raw(
        lo: f64,
        hi: f64,
        step: f64,
        cols: usize,
        data: Vec<f64>,
    ) -> Result<LutData, String> {
        LutData::assemble(lo, hi, step, cols, data.into())
    }

    /// [`LutData::from_raw`] over values that may lie in shared bytes.
    pub(crate) fn assemble(
        lo: f64,
        hi: f64,
        step: f64,
        cols: usize,
        data: Values,
    ) -> Result<LutData, String> {
        let range_ok =
            lo.is_finite() && hi.is_finite() && step.is_finite() && step > 0.0 && hi > lo;
        if !range_ok {
            return Err(format!("lut range [{lo}, {hi}] step {step} is invalid"));
        }
        if cols == 0 {
            return Err("lut has zero columns".to_string());
        }
        if !data.len().is_multiple_of(cols) {
            return Err(format!(
                "lut data length {} is not a multiple of {cols} columns",
                data.len()
            ));
        }
        let rows = data.len() / cols;
        let expect = ((hi - lo) / step).floor() as usize + 2;
        if rows != expect {
            return Err(format!(
                "lut has {rows} rows but the range [{lo}, {hi}] at step {step} needs {expect}"
            ));
        }
        Ok(LutData {
            lo,
            hi,
            step,
            inv_step: 1.0 / step,
            rows,
            cols,
            data,
        })
    }

    /// Lower bound of the tabulated range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the tabulated range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Tabulation step.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// The raw row-major payload (`data[row * cols + col]`).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Memory footprint of the table payload in bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// The low row of `key` and how far towards the next row it lies: the
    /// row is the key's offset clamped into the table (openCARP clamps
    /// out-of-range keys too) and rounded down, and a NaN key reads row 0
    /// at a NaN fraction — what `t as usize` gives, without the cast.
    #[inline]
    fn row_frac(&self, key: f64) -> (usize, f64) {
        use crate::vmath::SHIFTER;
        let t = (key - self.lo) * self.inv_step;
        let t = t.clamp(0.0, (self.rows - 2) as f64);
        // Float arithmetic and integer arithmetic on the bits only: LLVM
        // compiles a saturating float-to-integer `as` cast to a scalar
        // sequence per lane, which keeps a lane loop from vectorizing
        // (`vmath::round_half_away`). Round to nearest, then step down
        // where that went up; NaN fails both compares and takes row 0.
        let near = (t + SHIFTER) - SHIFTER;
        let row = if near > t { near - 1.0 } else { near };
        let row = if t >= 0.0 { row } else { 0.0 };
        let i = (row + SHIFTER).to_bits() - SHIFTER.to_bits();
        (i as usize, t - row)
    }

    /// Vectorized interpolation: for each lane `keys[i]`, writes the
    /// interpolated value of `col` into `out[i]`. Branch-free per lane.
    #[inline]
    pub fn interp_block(&self, keys: &[f64], col: usize, out: &mut [f64]) {
        debug_assert!(col < self.cols);
        let cols = self.cols;
        let maxi = (self.rows - 2) as f64;
        for (o, &k) in out.iter_mut().zip(keys) {
            let t = ((k - self.lo) * self.inv_step).clamp(0.0, maxi);
            let i = t as usize;
            let frac = t - i as f64;
            let a = self.data[i * cols + col];
            let b = self.data[(i + 1) * cols + col];
            *o = a + (b - a) * frac;
        }
    }

    /// Vectorized Catmull–Rom cubic interpolation — the spline variant the
    /// paper lists as future work (§7): third-order accurate, so a table
    /// with a 4x coarser step matches linear interpolation's accuracy at a
    /// quarter of the memory (at the cost of reading four rows per key).
    ///
    /// Edge intervals fall back to linear interpolation (no outer
    /// neighbours to form the stencil).
    #[inline]
    pub fn interp_block_cubic(&self, keys: &[f64], col: usize, out: &mut [f64]) {
        debug_assert!(col < self.cols);
        let cols = self.cols;
        let maxi = (self.rows - 2) as f64;
        for (o, &k) in out.iter_mut().zip(keys) {
            let t = ((k - self.lo) * self.inv_step).clamp(0.0, maxi);
            let i = t as usize;
            let frac = t - i as f64;
            if i == 0 || i + 2 >= self.rows {
                let a = self.data[i * cols + col];
                let b = self.data[(i + 1) * cols + col];
                *o = a + (b - a) * frac;
                continue;
            }
            let p0 = self.data[(i - 1) * cols + col];
            let p1 = self.data[i * cols + col];
            let p2 = self.data[(i + 1) * cols + col];
            let p3 = self.data[(i + 2) * cols + col];
            *o = catmull_rom(p0, p1, p2, p3, frac);
        }
    }

    /// Row interpolation — the engine's only way into a table. `regs` is a
    /// register file `lanes` lanes wide (register `r` is
    /// `regs[r * lanes..][..lanes]`) and `key` the register holding the
    /// keys: for each lane the clamp, row index and fraction are computed
    /// once, then every `(col, dst)` of `outs` is interpolated for all lanes
    /// into register `dst`. Every value equals what the per-column function
    /// of the mode returns, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when a column is not in the table, a register is outside
    /// `regs`, or (vector and cubic mode) `lanes` exceeds 64.
    // Always inlined: the dispatch arm knows the lane count, and the lane
    // loops are compiled for the arm's instruction set. Out of line it cost a
    // width-1 step 20 % (measured when every scalar row was one column).
    #[inline(always)]
    pub fn interp_row(
        &self,
        interp: LutInterp,
        key: u16,
        lanes: usize,
        outs: &[(u16, u16)],
        regs: &mut [f64],
    ) {
        let keys = key as usize * lanes..key as usize * lanes + lanes;
        if interp == LutInterp::Scalar {
            for lane in 0..lanes {
                let key = regs[keys.start + lane];
                self.interp_row_scalar(key, lane, lanes, outs, regs);
            }
            return;
        }
        // Pass 1, once per row: where each lane's low row starts, and how
        // far towards the next row its key lies.
        assert!(lanes <= ROW_LANES, "a row lookup {lanes} lanes wide");
        let (mut base, mut frac) = ([0usize; ROW_LANES], [0.0f64; ROW_LANES]);
        for (lane, &key) in regs[keys].iter().enumerate() {
            let (i, f) = self.row_frac(key);
            (base[lane], frac[lane]) = (i * self.cols, f);
        }
        // Pass 2, per column: gather it for all lanes, blend, and store one
        // contiguous register. `row_frac` clamps `i` to `rows - 2` and `col`
        // is checked below, so no offset exceeds `last` and the clamp in
        // `at` never engages — it is there for the optimiser, which can
        // then drop the per-element bounds check and turn the lane loop
        // into vector gathers where the instruction set has them.
        let (cols, data) = (self.cols, &*self.data);
        let last = data.len().checked_sub(1).expect("a table has rows");
        // An `if` and a `while`: `Ord::min` or a range loop changes the release code.
        let at = |offset: usize| data[if offset < last { offset } else { last }];
        for &(col, dst) in outs {
            let col = col as usize;
            assert!(col < cols, "lut column {col} is not in a table of {cols}");
            // Blended into a local first: a store into `regs` might, for all
            // the optimiser can tell, change `data`, and then it will not
            // gather.
            let mut column = [0.0f64; ROW_LANES];
            let mut lane = 0;
            while lane < lanes {
                let lo = base[lane] + col;
                // The cubic stencil needs a row on either side (see
                // [`Self::interp_block_cubic`]).
                let cubic = interp == LutInterp::Cubic;
                column[lane] = if cubic && base[lane] > 0 && base[lane] + 2 * cols <= last {
                    let (before, after) = (at(lo - cols), at(lo + 2 * cols));
                    catmull_rom(before, at(lo), at(lo + cols), after, frac[lane])
                } else {
                    lerp(at(lo), at(lo + cols), frac[lane])
                };
                lane += 1;
            }
            regs[dst as usize * lanes..dst as usize * lanes + lanes]
                .copy_from_slice(&column[..lanes]);
        }
    }

    /// One lane of a scalar row, as an opaque call: openCARP's scalar
    /// `LUT_interpRow`, which finds the row and fraction once and then
    /// blends every column of `outs` into lane `lane` of its register — the
    /// function-call structure that blocks auto-vectorization of the
    /// baseline. Each value is [`Self::interp_one`]'s for its column, bit
    /// for bit: the same `row_frac` and `lerp`.
    #[inline(never)]
    fn interp_row_scalar(
        &self,
        key: f64,
        lane: usize,
        lanes: usize,
        outs: &[(u16, u16)],
        regs: &mut [f64],
    ) {
        let (i, frac) = self.row_frac(key);
        // Sliced to one row each, so a column past the row's end panics
        // instead of reading the next row.
        let below = &self.data[i * self.cols..][..self.cols];
        let above = &self.data[(i + 1) * self.cols..][..self.cols];
        for &(col, dst) in outs {
            let col = col as usize;
            regs[dst as usize * lanes + lane] = lerp(below[col], above[col], frac);
        }
    }

    /// One scalar interpolation of one column, as an opaque call (the native
    /// tier's `lut_linear` callback).
    #[inline(never)]
    pub fn interp_one(&self, key: f64, col: usize) -> f64 {
        let (i, frac) = self.row_frac(key);
        lerp(
            self.data[i * self.cols + col],
            self.data[(i + 1) * self.cols + col],
            frac,
        )
    }
}

/// The linear blend every row path shares: `frac` of the way from `a` to
/// `b`, in the operation order of [`LutData::interp_block`].
#[inline(always)]
fn lerp(a: f64, b: f64, frac: f64) -> f64 {
    a + (b - a) * frac
}

/// The Catmull–Rom blend of four equally spaced samples at `frac` of the
/// way from `p1` to `p2`.
#[inline(always)]
fn catmull_rom(p0: f64, p1: f64, p2: f64, p3: f64, frac: f64) -> f64 {
    let f2 = frac * frac;
    let f3 = f2 * frac;
    0.5 * ((2.0 * p1)
        + (-p0 + p2) * frac
        + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * f2
        + (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * f3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> LutData {
        // Two columns: exp(x/10) and x².
        LutData::build(-100.0, 100.0, 0.05, 2, |x, out| {
            out[0] = (x / 10.0).exp();
            out[1] = x * x;
        })
    }

    #[test]
    fn rows_match_paper_listing() {
        // Paper Listing 1 uses lookup(-100, 100, 0.05): 4002 rows.
        let t = table();
        assert_eq!(t.rows(), 4002);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.bytes(), 4002 * 2 * 8);
    }

    #[test]
    fn interpolation_is_accurate() {
        let t = table();
        let keys = [-99.97, -50.02, 0.013, 42.42, 99.99, 0.0, 77.7, -1.0];
        let mut out = [0.0; 8];
        t.interp_block(&keys, 0, &mut out);
        for (k, o) in keys.iter().zip(&out) {
            let want = (k / 10.0).exp();
            let rel = (o - want).abs() / want;
            // Linear interpolation at step 0.05: error ~ (step²/8)·f''.
            assert!(rel < 1e-4, "key {k}: got {o}, want {want}");
        }
    }

    #[test]
    fn exact_at_grid_points() {
        let t = table();
        let keys = [-100.0, -50.0, 0.0, 50.0];
        let mut out = [0.0; 4];
        t.interp_block(&keys, 1, &mut out);
        for (k, o) in keys.iter().zip(&out) {
            assert!((o - k * k).abs() < 1e-9, "key {k}");
        }
    }

    #[test]
    fn out_of_range_keys_clamp() {
        let t = table();
        let keys = [-1e9, 1e9, f64::NEG_INFINITY];
        let mut out = [0.0; 3];
        t.interp_block(&keys, 1, &mut out);
        assert!((out[0] - 10_000.0).abs() < 10.0); // ≈ (−100)²
        assert!((out[1] - 10_000.0).abs() < 10.0);
        assert!(out[2].is_finite());
    }

    #[test]
    fn scalar_and_vector_paths_agree() {
        let t = table();
        let keys: Vec<f64> = (0..64).map(|i| -90.0 + i as f64 * 2.7).collect();
        let mut a = vec![0.0; 64];
        t.interp_block(&keys, 0, &mut a);
        let b: Vec<f64> = keys.iter().map(|&k| t.interp_one(k, 0)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn row_frac_equals_the_saturating_cast_it_replaces() {
        // What `row_frac` computed with `t as usize`.
        let cast = |t: &LutData, key: f64| {
            let x = ((key - t.lo) * t.inv_step).clamp(0.0, (t.rows - 2) as f64);
            let i = x as usize;
            (i, x - i as f64)
        };
        let coarse = LutData::build(-100.0, 100.0, 5.0, 1, |x, out| out[0] = x);
        for t in [table(), coarse] {
            let mut keys = vec![f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            keys.extend([
                -1e300,
                1e300,
                t.lo - 1.0,
                t.hi + 1.0,
                -0.0,
                0.0,
                f64::MIN_POSITIVE,
            ]);
            // Every row boundary with its neighbours, and the midpoints.
            for row in 0..t.rows() {
                let at = t.lo + row as f64 * t.step;
                let step = |by: i64| f64::from_bits((at.to_bits() as i64 + by) as u64);
                keys.extend([step(-1), at, step(1), at + 0.5 * t.step]);
            }
            for key in keys {
                let ((i, frac), (want_i, want_frac)) = (t.row_frac(key), cast(&t, key));
                assert_eq!(i, want_i, "row of {key:e}, step {}", t.step);
                assert_eq!(frac.to_bits(), want_frac.to_bits(), "fraction of {key:e}");
            }
        }
    }

    /// Keys that stress the clamp, the index and the fraction: far out of
    /// range, non-finite, on the grid, in the first and the last interval
    /// (where the cubic stencil falls back to linear), and in between — 128
    /// of them, whole registers at every width.
    fn hostile_keys() -> Vec<f64> {
        let mut keys = vec![
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1e300,
            1e300,
            -100.05,
            -100.0,
            -99.975,
            -99.95,
            -0.0,
            0.0,
            0.05,
            f64::MIN_POSITIVE,
            99.9,
            99.925,
            99.95,
            99.975,
            100.0,
            100.025,
            100.05,
            100.1,
        ];
        keys.extend((0..106).map(|i| -103.0 + i as f64 * 1.97));
        keys
    }

    /// `outs` of `t` looked up row by row at every width an engine runs
    /// (1–8 one block per dispatch, 16 and 32 batched) and the widest the
    /// scratch arrays take, in all three modes, against the per-column
    /// function of the mode.
    fn check_rows(t: &LutData, outs: &[(u16, u16)]) {
        let n_regs = outs.iter().map(|&(_, dst)| dst as usize + 1).max().unwrap();
        let keys = hostile_keys();
        for width in [1usize, 2, 4, 8, 16, 32, 64] {
            for block in keys.chunks_exact(width) {
                for interp in [LutInterp::Vec, LutInterp::Scalar, LutInterp::Cubic] {
                    let mut regs = vec![f64::NAN; n_regs * width];
                    regs[..width].copy_from_slice(block);
                    t.interp_row(interp, 0, width, outs, &mut regs);
                    for (lane, key) in block.iter().enumerate() {
                        assert_eq!(regs[lane].to_bits(), key.to_bits(), "key register");
                    }
                    for &(col, dst) in outs {
                        let col = col as usize;
                        let mut want = vec![0.0; width];
                        match interp {
                            LutInterp::Vec => t.interp_block(block, col, &mut want),
                            LutInterp::Cubic => t.interp_block_cubic(block, col, &mut want),
                            LutInterp::Scalar => {
                                for (w, &k) in want.iter_mut().zip(block) {
                                    *w = t.interp_one(k, col);
                                }
                            }
                        }
                        let got = &regs[dst as usize * width..][..width];
                        for ((g, w), k) in got.iter().zip(&want).zip(block) {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{} rows, {interp:?} W={width} col {col} key {k}: {g} vs {w}",
                                t.rows()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_lookup_equals_the_per_column_functions_bit_for_bit() {
        // Register 0 holds the key. Three columns so a row of two leaves one
        // out; they land out of order, one twice.
        let three = LutData::build(-100.0, 100.0, 0.05, 3, |x, out| {
            out[0] = (x / 10.0).exp();
            out[1] = x * x;
            out[2] = (x / 7.0).sin();
        });
        check_rows(&three, &[(2, 3), (0, 1), (1, 4), (0, 2)]);
        // A row of one: a key at which a single column is read.
        check_rows(&three, &[(1, 1)]);
        // The smallest legal table: two rows, so every key is in the first
        // and the last interval at once and the cubic stencil never fits.
        let two_rows = LutData::build(0.0, 1.0, 2.0, 2, |x, out| {
            out[0] = 1.0 + x;
            out[1] = -3.0 * x;
        });
        assert_eq!(two_rows.rows(), 2);
        check_rows(&two_rows, &[(1, 1), (0, 2)]);
        // A full row of the widest roster table (OHara's 65 columns), with a
        // singular column: infinite at one grid point, NaN around it.
        let wide = LutData::build(-100.0, 100.0, 0.5, 65, |x, out| {
            for (c, o) in out.iter_mut().enumerate() {
                *o = (x / (5.0 + c as f64)).sin() * (1.0 + c as f64);
            }
            out[64] = 1.0 / x;
        });
        let full: Vec<(u16, u16)> = (0..65).map(|c| (c, c + 1)).collect();
        check_rows(&wide, &full);
    }

    #[test]
    #[should_panic(expected = "a row lookup 65 lanes wide")]
    fn row_lookup_wider_than_its_scratch_panics_instead_of_truncating() {
        let t = table();
        let mut regs = vec![0.0; 2 * 65];
        t.interp_row(LutInterp::Vec, 0, 65, &[(0, 1)], &mut regs);
    }

    #[test]
    #[should_panic(expected = "lut column 2 is not in a table of 2")]
    fn row_lookup_of_a_missing_column_panics_instead_of_reading_the_next_row() {
        let t = table();
        let mut regs = [1.0, 0.0];
        t.interp_row(LutInterp::Vec, 0, 1, &[(2, 1)], &mut regs);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn scalar_row_lookup_of_a_missing_column_panics_instead_of_reading_the_next_row() {
        let t = table();
        let mut regs = [1.0, 0.0, 0.0];
        t.interp_row(LutInterp::Scalar, 0, 1, &[(0, 1), (2, 2)], &mut regs);
    }

    #[test]
    #[should_panic(expected = "empty lookup range")]
    fn bad_range_panics() {
        let _ = LutData::build(1.0, 0.0, 0.1, 1, |_, _| {});
    }

    #[test]
    fn cubic_is_exact_at_grid_points() {
        let t = table();
        let keys = [-50.0, 0.0, 50.0];
        let mut out = [0.0; 3];
        t.interp_block_cubic(&keys, 1, &mut out);
        for (k, o) in keys.iter().zip(&out) {
            assert!((o - k * k).abs() < 1e-9, "key {k}: {o}");
        }
    }

    #[test]
    fn cubic_beats_linear_on_smooth_functions() {
        // Coarse table of exp(x/10): cubic at step 1.0 should beat linear
        // at the same step by orders of magnitude.
        let t = LutData::build(-50.0, 50.0, 1.0, 1, |x, out| out[0] = (x / 10.0).exp());
        let keys: Vec<f64> = (0..97).map(|i| -47.5 + i as f64).collect();
        let mut lin = vec![0.0; keys.len()];
        let mut cub = vec![0.0; keys.len()];
        t.interp_block(&keys, 0, &mut lin);
        t.interp_block_cubic(&keys, 0, &mut cub);
        let (mut err_lin, mut err_cub) = (0.0f64, 0.0f64);
        for ((k, l), c) in keys.iter().zip(&lin).zip(&cub) {
            let want = (k / 10.0).exp();
            err_lin = err_lin.max((l - want).abs() / want);
            err_cub = err_cub.max((c - want).abs() / want);
        }
        assert!(
            err_cub < err_lin / 20.0,
            "cubic {err_cub:.3e} not much better than linear {err_lin:.3e}"
        );
    }

    #[test]
    fn cubic_clamps_out_of_range() {
        let t = table();
        let keys = [-1e6, 1e6];
        let mut out = [0.0; 2];
        t.interp_block_cubic(&keys, 0, &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
