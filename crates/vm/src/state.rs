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
    /// variables initialized to `inits`.
    ///
    /// # Panics
    ///
    /// Panics if `inits` is empty and `n_cells > 0` is requested with an
    /// AoSoA block of 0.
    pub fn new(n_cells: usize, inits: &[f64], layout: StateLayout) -> CellStates {
        if let StateLayout::AoSoA { block } = layout {
            assert!(block > 0, "AoSoA block must be positive");
        }
        let n_vars = inits.len();
        let padded = n_cells.div_ceil(8).max(1) * 8;
        let mut s = CellStates {
            n_cells,
            padded,
            n_vars,
            layout,
            data: vec![0.0; padded * n_vars],
        };
        for cell in 0..padded {
            for (var, &v) in inits.iter().enumerate() {
                s.set_raw(cell, var, v);
            }
        }
        s
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

    /// The raw storage slice (`padded_cells() * n_vars()` values, indexed
    /// per [`StateLayout`]) — what a native (dlopen'd) kernel receives.
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
        out.padded = self.padded;
        out.data = vec![0.0; self.padded * self.n_vars];
        for cell in 0..self.padded {
            for var in 0..self.n_vars {
                let v = self.data[self.index(cell, var)];
                out.set_raw(cell, var, v);
            }
        }
        out
    }
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
