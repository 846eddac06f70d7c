//! Cell state storage with switchable data layout (paper §3.4.1).
//!
//! openCARP stores each cell's state variables contiguously (array of
//! structures). For vector execution the paper rearranges storage so the
//! same state variable of `block` consecutive cells is contiguous
//! (array-of-structures-of-arrays), turning per-variable gathers into
//! single vector loads — the data-layout transformation evaluated in §4.4.

/// The storage layout for per-cell state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateLayout {
    /// `data[cell * n_vars + var]` — openCARP's original layout; accessing
    /// one variable across cells strides by `n_vars`.
    Aos,
    /// `data[(cell / block) * n_vars * block + var * block + cell % block]`
    /// — blocks of `block` cells store each variable contiguously.
    AoSoA {
        /// Cells per block (the paper uses the vector width).
        block: usize,
    },
}

/// Per-cell state variables for a population of cells.
///
/// Capacity is padded to a multiple of 8 so vector kernels can always
/// process whole chunks; the padding cells hold valid (initial) values.
///
/// # Examples
///
/// ```
/// use limpet_vm::{CellStates, StateLayout};
/// let mut s = CellStates::new(10, &[0.5, -85.0], StateLayout::AoSoA { block: 8 });
/// assert_eq!(s.n_cells(), 10);
/// assert_eq!(s.get(3, 1), -85.0);
/// s.set(3, 1, -20.0);
/// assert_eq!(s.get(3, 1), -20.0);
/// ```
#[derive(Debug, PartialEq)]
pub struct CellStates {
    n_cells: usize,
    padded: usize,
    n_vars: usize,
    layout: StateLayout,
    data: Vec<f64>,
}

impl Clone for CellStates {
    fn clone(&self) -> CellStates {
        CellStates {
            data: self.data.clone(),
            ..*self
        }
    }

    /// Copies into the storage `self` already has (the derived
    /// `clone_from` would allocate a new vector): what lets a rollback
    /// point be refreshed without allocating.
    fn clone_from(&mut self, source: &CellStates) {
        let data = std::mem::take(&mut self.data);
        *self = CellStates { data, ..*source };
        self.data.clone_from(&source.data);
    }
}

impl CellStates {
    /// Creates storage for `n_cells` cells, each with `inits.len()` state
    /// variables initialized to `inits`. Every value is written once: a
    /// row per cell under AoS, a `fill` per variable of each block under
    /// AoSoA.
    ///
    /// # Panics
    ///
    /// Panics on an AoSoA block of 0.
    pub fn new(n_cells: usize, inits: &[f64], layout: StateLayout) -> CellStates {
        let block = storage_block(layout);
        assert!(block > 0, "AoSoA block must be positive");
        let n_vars = inits.len();
        let padded = n_cells.div_ceil(8).max(1) * 8;
        // Whole blocks: a block wider than 8 may reach past `padded`.
        let mut data = vec![0.0; padded.next_multiple_of(block) * n_vars];
        if n_vars > 0 {
            for cells in data.chunks_exact_mut(n_vars * block) {
                for (run, &v) in cells.chunks_exact_mut(block).zip(inits) {
                    run.fill(v);
                }
            }
        }
        CellStates {
            n_cells,
            padded,
            n_vars,
            layout,
            data,
        }
    }

    /// Logical cell count.
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// Padded cell count (multiple of 8).
    pub fn padded_cells(&self) -> usize {
        self.padded
    }

    /// Number of state variables per cell.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// The storage layout.
    pub fn layout(&self) -> StateLayout {
        self.layout
    }

    #[inline]
    fn index(&self, cell: usize, var: usize) -> usize {
        match self.layout {
            StateLayout::Aos => cell * self.n_vars + var,
            StateLayout::AoSoA { block } => {
                (cell / block) * self.n_vars * block + var * block + cell % block
            }
        }
    }

    #[inline]
    fn set_raw(&mut self, cell: usize, var: usize, v: f64) {
        let i = self.index(cell, var);
        self.data[i] = v;
    }

    /// One gathered lane load. Kept out-of-line deliberately: a hardware
    /// gather (`vgatherqpd`) issues one cache access per lane and cannot
    /// overlap like a contiguous vector load; the non-inlined call models
    /// that per-lane serialization (the cost the paper's AoSoA
    /// transformation removes, §3.4.1).
    #[inline(never)]
    fn gather_one(&self, cell: usize, var: usize) -> f64 {
        self.data[self.index(cell, var)]
    }

    /// One scattered lane store (see [`CellStates::gather_one`]).
    #[inline(never)]
    fn scatter_one(&mut self, cell: usize, var: usize, v: f64) {
        let i = self.index(cell, var);
        self.data[i] = v;
    }

    /// Reads one variable of one cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= n_cells()` or `var >= n_vars()`.
    pub fn get(&self, cell: usize, var: usize) -> f64 {
        assert!(cell < self.n_cells && var < self.n_vars);
        self.data[self.index(cell, var)]
    }

    /// Writes one variable of one cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= n_cells()` or `var >= n_vars()`.
    pub fn set(&mut self, cell: usize, var: usize, v: f64) {
        assert!(cell < self.n_cells && var < self.n_vars);
        self.set_raw(cell, var, v);
    }

    /// Whether the `W`-cell blocks from `cell0` are blocks of the layout —
    /// it is AoSoA with blocks of exactly `W` cells and `cell0` starts one —
    /// so that each holds a variable's `W` values side by side. Otherwise
    /// (AoS, another block size, `cell0` inside a block) the cells are
    /// gathered one by one. `W` is the caller's constant, so the alignment
    /// test is a mask, not a division.
    #[inline(always)]
    fn in_blocks_of<const W: usize>(&self, cell0: usize) -> bool {
        self.layout == StateLayout::AoSoA { block: W } && cell0.is_multiple_of(W)
    }

    /// Loads `out.len()` consecutive cells' values of `var`, starting at
    /// `cell0`, for a caller whose vectors are `W` lanes wide. Whole
    /// `W`-cell blocks of a matching AoSoA layout are one `W`-element copy
    /// each (the vector load the paper's transformation enables) after one
    /// layout decision for all of them; anything else gathers.
    #[inline(always)]
    pub fn load_block<const W: usize>(&self, cell0: usize, var: usize, out: &mut [f64]) {
        debug_assert!(cell0 + out.len() <= self.padded);
        let (blocks, rest) = out.as_chunks_mut::<W>();
        if self.in_blocks_of::<W>(cell0) && rest.is_empty() {
            // From the first run on; the next block's is `stride` further.
            let (runs, stride) = (&self.data[cell0 * self.n_vars + var * W..], self.n_vars * W);
            for (k, block) in blocks.iter_mut().enumerate() {
                block.copy_from_slice(&runs[k * stride..][..W]);
            }
        } else {
            for (i, o) in out.iter_mut().enumerate() {
                *o = self.gather_one(cell0 + i, var);
            }
        }
    }

    /// Stores `vals.len()` consecutive cells' values of `var` starting at
    /// `cell0` (one copy per whole `W`-cell block of a matching AoSoA
    /// layout, a scatter otherwise; see [`CellStates::load_block`]).
    #[inline(always)]
    pub fn store_block<const W: usize>(&mut self, cell0: usize, var: usize, vals: &[f64]) {
        debug_assert!(cell0 + vals.len() <= self.padded);
        let (blocks, rest) = vals.as_chunks::<W>();
        if self.in_blocks_of::<W>(cell0) && rest.is_empty() {
            let (first, stride) = (cell0 * self.n_vars + var * W, self.n_vars * W);
            let runs = &mut self.data[first..];
            for (k, block) in blocks.iter().enumerate() {
                runs[k * stride..][..W].copy_from_slice(block);
            }
        } else {
            for (i, &v) in vals.iter().enumerate() {
                self.scatter_one(cell0 + i, var, v);
            }
        }
    }

    /// Copies every logical cell's values, as bit patterns, into rows of
    /// `stride` slots: variable `var` of cell `c` goes to
    /// `rows[c * stride + var]`; the other slots are left as they are.
    /// Storage is walked block by block — under AoSoA each variable's run
    /// of `block` lanes goes to one slot of `block` consecutive rows, under
    /// AoS each row is one copy — so there is no per-value index
    /// arithmetic, and padding lanes are never read.
    ///
    /// # Panics
    ///
    /// Panics if `stride < n_vars()` or `rows` is shorter than
    /// `(n_cells() - 1) * stride + n_vars()`.
    pub fn copy_to_rows(&self, rows: &mut [u64], stride: usize) {
        let span = rows_span(self.n_cells, self.n_vars, rows.len(), stride);
        let rows = &mut rows[..span];
        let n = self.n_vars;
        if n == 0 {
            return;
        }
        match self.layout {
            StateLayout::Aos => {
                for (row, vals) in rows.chunks_mut(stride).zip(self.data.chunks_exact(n)) {
                    for (slot, v) in row.iter_mut().zip(vals) {
                        *slot = v.to_bits();
                    }
                }
            }
            StateLayout::AoSoA { block } => {
                let blocks = self.data.chunks_exact(n * block);
                for (cells, runs) in rows.chunks_mut(stride * block).zip(blocks) {
                    for (var, run) in runs.chunks_exact(block).enumerate() {
                        let slots = cells[var..].iter_mut().step_by(stride);
                        for (slot, v) in slots.zip(run) {
                            *slot = v.to_bits();
                        }
                    }
                }
            }
        }
    }

    /// The inverse of [`CellStates::copy_to_rows`]: writes every logical
    /// cell's values from the bit patterns at `rows[c * stride + var]`,
    /// block by block. Padding lanes keep the values they hold.
    ///
    /// # Panics
    ///
    /// As [`CellStates::copy_to_rows`].
    pub fn copy_from_rows(&mut self, rows: &[u64], stride: usize) {
        let rows = &rows[..rows_span(self.n_cells, self.n_vars, rows.len(), stride)];
        let n = self.n_vars;
        if n == 0 {
            return;
        }
        match self.layout {
            StateLayout::Aos => {
                for (vals, row) in self.data.chunks_exact_mut(n).zip(rows.chunks(stride)) {
                    for (v, slot) in vals.iter_mut().zip(row) {
                        *v = f64::from_bits(*slot);
                    }
                }
            }
            StateLayout::AoSoA { block } => {
                let blocks = self.data.chunks_exact_mut(n * block);
                for (runs, cells) in blocks.zip(rows.chunks(stride * block)) {
                    for (var, run) in runs.chunks_exact_mut(block).enumerate() {
                        let slots = cells[var..].iter().step_by(stride);
                        for (v, slot) in run.iter_mut().zip(slots) {
                            *v = f64::from_bits(*slot);
                        }
                    }
                }
            }
        }
    }

    /// The raw storage slice (`padded_cells() * n_vars()` values, indexed
    /// per [`StateLayout`], plus the lanes that complete the last block
    /// when the block is wider than 8) — what a native (dlopen'd) kernel
    /// receives.
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage slice (see [`CellStates::raw`]).
    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Converts to another layout, preserving all values.
    pub fn to_layout(&self, layout: StateLayout) -> CellStates {
        let mut out = CellStates::new(self.n_cells, &vec![0.0; self.n_vars], layout);
        for cell in 0..self.padded {
            for var in 0..self.n_vars {
                let v = self.data[self.index(cell, var)];
                out.set_raw(cell, var, v);
            }
        }
        out
    }
}

/// Cells per block of storage: AoS is stored as AoSoA with blocks of one
/// cell, whose one run per variable is one slot of the cell's row.
fn storage_block(layout: StateLayout) -> usize {
    match layout {
        StateLayout::Aos => 1,
        StateLayout::AoSoA { block } => block,
    }
}

/// How many slots of rows of `stride` the values of `n_vars` variables of
/// `n_cells` cells span (the last row ends after its `n_vars`-th slot),
/// checked against the `rows` slots there are: the one check of a
/// whole-storage copy.
fn rows_span(n_cells: usize, n_vars: usize, rows: usize, stride: usize) -> usize {
    let span = n_cells.checked_sub(1).map_or(0, |c| c * stride + n_vars);
    assert!(
        stride >= n_vars && rows >= span,
        "{rows} slots in rows of {stride} cannot hold {n_cells} cells of {n_vars} values"
    );
    span
}

/// External variable arrays (`Vm_ext`, `Iion_ext`, … in Listing 2): one
/// contiguous array per external variable, indexed by cell.
///
/// # Examples
///
/// ```
/// use limpet_vm::ExtArrays;
/// let mut e = ExtArrays::new(4, &[-85.0, 0.0]);
/// assert_eq!(e.get(2, 0), -85.0);
/// e.set(2, 0, -60.0);
/// assert_eq!(e.get(2, 0), -60.0);
/// ```
#[derive(Debug, PartialEq)]
pub struct ExtArrays {
    n_cells: usize,
    padded: usize,
    arrays: Vec<Vec<f64>>,
}

impl Clone for ExtArrays {
    fn clone(&self) -> ExtArrays {
        ExtArrays {
            arrays: self.arrays.clone(),
            ..*self
        }
    }

    /// Copies array by array into the storage `self` already has (see
    /// [`CellStates::clone_from`]).
    fn clone_from(&mut self, source: &ExtArrays) {
        let arrays = std::mem::take(&mut self.arrays);
        *self = ExtArrays { arrays, ..*source };
        self.arrays.clone_from(&source.arrays);
    }
}

impl ExtArrays {
    /// Creates one array per entry of `inits`, each sized `n_cells`
    /// (padded to a multiple of 8) and filled with the init value.
    pub fn new(n_cells: usize, inits: &[f64]) -> ExtArrays {
        let padded = n_cells.div_ceil(8).max(1) * 8;
        ExtArrays {
            n_cells,
            padded,
            arrays: inits.iter().map(|&v| vec![v; padded]).collect(),
        }
    }

    /// Logical cell count.
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// Number of external variables.
    pub fn n_vars(&self) -> usize {
        self.arrays.len()
    }

    /// Reads one external value.
    pub fn get(&self, cell: usize, var: usize) -> f64 {
        self.arrays[var][cell]
    }

    /// Writes one external value.
    pub fn set(&mut self, cell: usize, var: usize, v: f64) {
        self.arrays[var][cell] = v;
    }

    /// Loads a contiguous block.
    #[inline(always)]
    pub fn load_block(&self, cell0: usize, var: usize, out: &mut [f64]) {
        out.copy_from_slice(&self.arrays[var][cell0..cell0 + out.len()]);
    }

    /// Stores a contiguous block.
    #[inline(always)]
    pub fn store_block(&mut self, cell0: usize, var: usize, vals: &[f64]) {
        self.arrays[var][cell0..cell0 + vals.len()].copy_from_slice(vals);
    }

    /// Copies every logical cell's values, as bit patterns, into rows of
    /// `stride` slots: variable `var` of cell `c` goes to
    /// `rows[c * stride + var]`, one loop per array (see
    /// [`CellStates::copy_to_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if `stride < n_vars()` or `rows` is shorter than
    /// `(n_cells - 1) * stride + n_vars()`.
    pub fn copy_to_rows(&self, rows: &mut [u64], stride: usize) {
        let span = rows_span(self.n_cells, self.n_vars(), rows.len(), stride);
        let rows = &mut rows[..span];
        for (var, array) in self.arrays.iter().enumerate() {
            let slots = rows[var..].iter_mut().step_by(stride);
            for (slot, v) in slots.zip(&array[..self.n_cells]) {
                *slot = v.to_bits();
            }
        }
    }

    /// The inverse of [`ExtArrays::copy_to_rows`]; padding cells keep the
    /// values they hold.
    ///
    /// # Panics
    ///
    /// As [`ExtArrays::copy_to_rows`].
    pub fn copy_from_rows(&mut self, rows: &[u64], stride: usize) {
        let rows = &rows[..rows_span(self.n_cells, self.n_vars(), rows.len(), stride)];
        for (var, array) in self.arrays.iter_mut().enumerate() {
            let slots = rows[var..].iter().step_by(stride);
            for (v, slot) in array[..self.n_cells].iter_mut().zip(slots) {
                *v = f64::from_bits(*slot);
            }
        }
    }

    /// Immutable view of one variable's full (padded) array.
    pub fn array(&self, var: usize) -> &[f64] {
        &self.arrays[var]
    }

    /// Mutable view of one variable's full (padded) array.
    pub fn array_mut(&mut self, var: usize) -> &mut [f64] {
        &mut self.arrays[var]
    }

    /// One mutable base pointer per variable array, in variable order —
    /// the `double* const*` argument a native (dlopen'd) kernel receives.
    /// The pointers stay valid only while no method reallocates the
    /// arrays (none does; sizes are fixed at construction).
    pub fn raw_mut_ptrs(&mut self) -> Vec<*mut f64> {
        self.arrays.iter_mut().map(|a| a.as_mut_ptr()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aos_and_aosoa_agree_elementwise() {
        let inits = [1.0, 2.0, 3.0];
        let mut a = CellStates::new(20, &inits, StateLayout::Aos);
        let mut b = CellStates::new(20, &inits, StateLayout::AoSoA { block: 8 });
        for cell in 0..20 {
            for var in 0..3 {
                let v = (cell * 31 + var * 7) as f64;
                a.set(cell, var, v);
                b.set(cell, var, v);
            }
        }
        for cell in 0..20 {
            for var in 0..3 {
                assert_eq!(a.get(cell, var), b.get(cell, var));
            }
        }
    }

    #[test]
    fn block_ops_round_trip_all_layouts() {
        for layout in [
            StateLayout::Aos,
            StateLayout::AoSoA { block: 4 },
            StateLayout::AoSoA { block: 8 },
        ] {
            let mut s = CellStates::new(16, &[0.0, 0.0], layout);
            let vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
            s.store_block::<8>(8, 1, &vals);
            let mut out = [0.0; 8];
            s.load_block::<8>(8, 1, &mut out);
            assert_eq!(out, vals, "layout {layout:?}");
            // Elementwise agreement.
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(s.get(8 + i, 1), v);
            }
        }
    }

    #[test]
    fn padding_is_multiple_of_8_and_initialized() {
        let s = CellStates::new(10, &[7.0], StateLayout::Aos);
        assert_eq!(s.padded_cells(), 16);
        // Padding cells initialized too (safe to compute over).
        let mut out = [0.0; 8];
        s.load_block::<8>(8, 0, &mut out);
        assert!(out.iter().all(|&v| v == 7.0));
    }

    #[test]
    fn layout_conversion_preserves_values() {
        let mut s = CellStates::new(12, &[0.0, 0.0, 0.0], StateLayout::Aos);
        for cell in 0..12 {
            for var in 0..3 {
                s.set(cell, var, (cell * 10 + var) as f64);
            }
        }
        let t = s.to_layout(StateLayout::AoSoA { block: 8 });
        for cell in 0..12 {
            for var in 0..3 {
                assert_eq!(t.get(cell, var), s.get(cell, var));
            }
        }
    }

    #[test]
    fn ext_arrays_round_trip() {
        let mut e = ExtArrays::new(10, &[0.0, 5.0]);
        assert_eq!(e.n_vars(), 2);
        assert_eq!(e.get(9, 1), 5.0);
        let vals = [9.0; 8];
        e.store_block(0, 0, &vals);
        let mut out = [0.0; 8];
        e.load_block(0, 0, &mut out);
        assert_eq!(out, vals);
    }

    #[test]
    fn clone_from_copies_everything_into_the_storage_it_has() {
        let mut s = CellStates::new(12, &[1.0, 2.0], StateLayout::AoSoA { block: 8 });
        s.set(3, 1, -7.0);
        let mut e = ExtArrays::new(12, &[-85.0, 0.0]);
        e.set(11, 1, 4.0);
        let (mut s2, mut e2) = (s.clone(), e.clone());
        let at = (
            s2.raw().as_ptr(),
            e2.array(0).as_ptr(),
            e2.array(1).as_ptr(),
        );
        s.set(5, 0, 9.0);
        e.set(0, 0, -60.0);
        s2.clone_from(&s);
        e2.clone_from(&e);
        assert_eq!((&s2, &e2), (&s, &e));
        let now = (
            s2.raw().as_ptr(),
            e2.array(0).as_ptr(),
            e2.array(1).as_ptr(),
        );
        assert_eq!(now, at, "reallocated");
        // Another shape: everything follows the source, lengths included.
        let other = CellStates::new(40, &[0.5; 3], StateLayout::Aos);
        s2.clone_from(&other);
        assert_eq!(s2, other);
    }

    /// Every length (so one block and a whole four-block register of every
    /// width, whole blocks and ragged ones) from every start (block-aligned
    /// or not) under every layout (blocks equal to the width, smaller,
    /// larger, odd; AoS), as a `W`-lane caller: the values are those of
    /// per-cell `get`, and a store lands in exactly those cells.
    fn block_ops_equal_per_cell_access<const W: usize>() {
        let layouts = [1, 2, 3, 4, 8, 16]
            .map(|block| StateLayout::AoSoA { block })
            .into_iter()
            .chain([StateLayout::Aos]);
        for layout in layouts {
            let mut s = CellStates::new(48, &[0.0; 3], layout);
            for cell in 0..48 {
                for var in 0..3 {
                    s.set(cell, var, (cell * 3 + var) as f64);
                }
            }
            for len in 1..=40 {
                for cell0 in 0..=48 - len {
                    let what = format!("W={W} {layout:?} cells {cell0}+{len}");
                    let mut out = vec![f64::NAN; len];
                    s.load_block::<W>(cell0, 1, &mut out);
                    for (i, v) in out.iter().enumerate() {
                        assert_eq!(*v, s.get(cell0 + i, 1), "{what}: load, lane {i}");
                    }
                    let mut t = s.clone();
                    let vals: Vec<f64> = (0..len).map(|i| -1.0 - i as f64).collect();
                    t.store_block::<W>(cell0, 1, &vals);
                    for cell in 0..48usize {
                        for var in 0..3 {
                            let want = match cell.checked_sub(cell0) {
                                Some(i) if var == 1 && i < len => vals[i],
                                _ => s.get(cell, var),
                            };
                            assert_eq!(t.get(cell, var), want, "{what}: store");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_ops_equal_per_cell_access_for_every_block_len_and_start() {
        block_ops_equal_per_cell_access::<1>();
        block_ops_equal_per_cell_access::<2>();
        block_ops_equal_per_cell_access::<4>();
        block_ops_equal_per_cell_access::<8>();
    }

    /// AoS and AoSoA blocks of 1, 2, 4, 8 and 16 (wider than the padding
    /// of 8) at cell counts of one cell, a ragged block, a whole block,
    /// two blocks, and 8192 + 1.
    fn layouts_and_sizes() -> impl Iterator<Item = (StateLayout, usize)> {
        let layouts = [1, 2, 4, 8, 16]
            .map(|block| StateLayout::AoSoA { block })
            .into_iter()
            .chain([StateLayout::Aos]);
        layouts.flat_map(|layout| [1, 7, 8, 13, 8193].map(|n| (layout, n)))
    }

    /// `new` writes every slot of the storage — padding lanes and the lanes
    /// that complete a block wider than the padding included — with what
    /// a `set` per element writes into storage that starts as NaN.
    #[test]
    fn new_equals_a_per_element_oracle() {
        let inits = [0.5, -85.0, 3.25];
        for (layout, n_cells) in layouts_and_sizes() {
            let s = CellStates::new(n_cells, &inits, layout);
            let lanes = s.padded.next_multiple_of(storage_block(layout));
            let mut oracle = CellStates {
                data: vec![f64::NAN; lanes * inits.len()],
                ..s.clone()
            };
            for cell in 0..lanes {
                for (var, &v) in inits.iter().enumerate() {
                    oracle.set_raw(cell, var, v);
                }
            }
            assert_eq!(s, oracle, "{layout:?} n_cells={n_cells}");
        }
    }

    /// The whole-storage copies against `get` and `set`, in rows wider
    /// than the variables: `copy_to_rows` fills exactly each cell's slots,
    /// and `copy_from_rows` writes exactly the logical cells.
    #[test]
    fn row_copies_equal_per_element_access() {
        let inits = [0.5, -85.0, 3.25];
        let stride = 5;
        for (layout, n_cells) in layouts_and_sizes() {
            let what = format!("{layout:?} n_cells={n_cells}");
            let fresh = CellStates::new(n_cells, &inits, layout);
            let mut s = fresh.clone();
            for cell in 0..n_cells {
                for var in 0..3 {
                    s.set(cell, var, (cell * 3 + var) as f64);
                }
            }
            let mut rows = vec![u64::MAX; n_cells * stride];
            s.copy_to_rows(&mut rows, stride);
            for (cell, row) in rows.chunks(stride).enumerate() {
                let want: Vec<u64> = (0..3).map(|var| s.get(cell, var).to_bits()).collect();
                assert_eq!(row[..3], want, "{what}: cell {cell}");
                assert_eq!(row[3..], [u64::MAX; 2], "{what}: cell {cell}");
            }
            let mut restored = fresh.clone();
            restored.copy_from_rows(&rows, stride);
            assert_eq!(restored, s, "{what}");

            let mut e = ExtArrays::new(n_cells, &[-85.0, 0.0]);
            for cell in 0..n_cells {
                e.set(cell, 1, cell as f64);
            }
            e.copy_to_rows(&mut rows[3..], stride);
            let mut back = ExtArrays::new(n_cells, &[1.0, 2.0]);
            back.copy_from_rows(&rows[3..], stride);
            for cell in 0..e.padded {
                let logical = cell < n_cells;
                assert_eq!(
                    back.get(cell, 0),
                    if logical { -85.0 } else { 1.0 },
                    "{what}"
                );
                assert_eq!(
                    back.get(cell, 1),
                    if logical { cell as f64 } else { 2.0 },
                    "{what}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn row_copies_refuse_rows_too_short() {
        let s = CellStates::new(3, &[1.0, 2.0], StateLayout::AoSoA { block: 2 });
        s.copy_to_rows(&mut [0; 7], 3);
    }

    #[test]
    fn aosoa_partial_block_load_unaligned_falls_back() {
        let mut s = CellStates::new(16, &[0.0], StateLayout::AoSoA { block: 8 });
        for cell in 0..16 {
            s.set(cell, 0, cell as f64);
        }
        // Unaligned load crossing a block boundary must still be correct.
        let mut out = [0.0; 4];
        s.load_block::<4>(6, 0, &mut out);
        assert_eq!(out, [6.0, 7.0, 8.0, 9.0]);
    }
}
