//! CoMD: a molecular-dynamics proxy (Lennard-Jones).
//!
//! CoMD simulates particle motion with a Lennard-Jones potential using link cells and
//! velocity-Verlet time integration. The re-implementation keeps the computational
//! pattern: each rank owns a slab of the global simulation box (1-D decomposition along
//! x), builds link cells over its particles, exchanges a one-cell-wide strip of ghost
//! particles with its neighbours every step, computes short-range LJ forces from the
//! cell neighbourhood, integrates positions and velocities, and reduces the total
//! energy across ranks every step.
//!
//! FTI protects the particle positions, velocities and the step counter — the
//! cross-iteration state the paper's checkpoint-object analysis identifies.

use fti::{Fti, Protectable};
use mpisim::{Comm, MpiError, RankCtx};
use recovery::FaultInjector;

use crate::common::{checksum, world_slab, AppOutput, DetRng, ProxyApp};

/// Lennard-Jones cutoff radius in reduced units.
const CUTOFF: f64 = 2.5;
/// Lattice spacing of the initial configuration (slightly above the LJ minimum so the
/// system starts near equilibrium and stays numerically tame).
const LATTICE: f64 = 1.2;
/// Time step in reduced units.
const DT: f64 = 0.002;

/// CoMD parameters: the global lattice dimensions (`-nx -ny -nz`, one particle per
/// lattice site here) and the number of time steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComdParams {
    /// Global lattice sites in x.
    pub nx: usize,
    /// Global lattice sites in y.
    pub ny: usize,
    /// Global lattice sites in z.
    pub nz: usize,
    /// Number of velocity-Verlet steps.
    pub steps: u64,
}

impl ComdParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or no steps are requested.
    pub fn new(nx: usize, ny: usize, nz: usize, steps: u64) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "lattice dimensions must be positive"
        );
        assert!(steps > 0, "need at least one step");
        ComdParams { nx, ny, nz, steps }
    }

    /// Total number of particles in the global box.
    pub fn global_particles(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// The CoMD proxy application.
#[derive(Debug, Clone)]
pub struct Comd {
    params: ComdParams,
}

impl Comd {
    /// Creates a CoMD instance.
    pub fn new(params: ComdParams) -> Self {
        Comd { params }
    }

    /// The parameters of this instance.
    pub fn params(&self) -> &ComdParams {
        &self.params
    }

    /// Generates this rank's initial particles: lattice positions (with a small
    /// deterministic jitter) inside the rank's x-slab, and zero initial velocities.
    fn init_particles(&self, rank: usize, nranks: usize) -> (Vec<f64>, Vec<f64>, f64, f64) {
        let slab = crate::common::BlockPartition::new(self.params.nx, nranks);
        let x_start = slab.start(rank);
        let x_count = slab.count(rank);
        let mut rng = DetRng::new(0xC0FFEE ^ rank as u64);
        let mut positions = Vec::with_capacity(x_count * self.params.ny * self.params.nz * 3);
        for ix in 0..x_count {
            for iy in 0..self.params.ny {
                for iz in 0..self.params.nz {
                    let jitter = 0.05 * (rng.next_f64() - 0.5);
                    positions.push((x_start + ix) as f64 * LATTICE + jitter);
                    positions.push(iy as f64 * LATTICE + 0.05 * (rng.next_f64() - 0.5));
                    positions.push(iz as f64 * LATTICE + 0.05 * (rng.next_f64() - 0.5));
                }
            }
        }
        let velocities = vec![0.0; positions.len()];
        let slab_min = x_start as f64 * LATTICE;
        let slab_max = (x_start + x_count) as f64 * LATTICE;
        (positions, velocities, slab_min, slab_max)
    }

    /// Exchanges ghost particles (positions near the slab boundaries) with the x
    /// neighbours and returns them concatenated.
    fn exchange_ghosts(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        positions: &[f64],
        slab_min: f64,
        slab_max: f64,
    ) -> Result<Vec<f64>, MpiError> {
        let mut to_prev = Vec::new();
        let mut to_next = Vec::new();
        for p in positions.chunks_exact(3) {
            if p[0] < slab_min + CUTOFF {
                to_prev.extend_from_slice(p);
            }
            if p[0] > slab_max - CUTOFF {
                to_next.extend_from_slice(p);
            }
        }
        let me = comm.rank();
        let n = comm.size();
        if me > 0 {
            ctx.send_f64(comm, me - 1, 41, &to_prev)?;
        }
        if me + 1 < n {
            ctx.send_f64(comm, me + 1, 41, &to_next)?;
        }
        let mut ghosts = Vec::new();
        if me > 0 {
            ghosts.extend(ctx.recv_f64(comm, (me - 1) as i32, 41)?.1);
        }
        if me + 1 < n {
            ghosts.extend(ctx.recv_f64(comm, (me + 1) as i32, 41)?.1);
        }
        Ok(ghosts)
    }

    /// Computes Lennard-Jones forces and the local potential energy from the owned
    /// particles plus ghosts with the link-cell method of the original: owned
    /// particles and ghosts are binned into cells at least one cutoff wide, and each
    /// particle is tested only against the 27 cells around its own. Owned pairs are
    /// counted once (`j > i`); an owned-ghost pair gives this rank half its energy.
    ///
    /// The in-cutoff partners of particle `i` are applied in index order, which sums
    /// `forces` and the potential in exactly the order of a scan over all pairs.
    /// The flops charged are those of that all-pairs scan (12 per candidate pair, 20
    /// per owned and 12 per ghost interaction), so virtual time is independent of
    /// the binning.
    fn compute_forces(
        &self,
        ctx: &mut RankCtx,
        positions: &[f64],
        ghosts: &[f64],
        forces: &mut [f64],
        scratch: &mut ForceScratch,
    ) -> f64 {
        let n = positions.len() / 3;
        let g = ghosts.len() / 3;
        forces.fill(0.0);
        let grid = CellGrid::covering(positions, ghosts);
        grid.bin(positions, &mut scratch.owned);
        grid.bin(ghosts, &mut scratch.ghosts);
        let ForceScratch {
            owned,
            ghosts: ghost_cells,
            hits,
        } = scratch;
        let mut potential = 0.0;
        let mut owned_hits = 0u64;
        let mut ghost_hits = 0u64;
        for i in 0..n {
            let pi = &positions[3 * i..3 * i + 3];
            let cell = owned.cell[i];
            // Owned-owned pairs (each counted once).
            hits.clear();
            grid.for_each_neighbour(cell, owned, i + 1, |j, pj| {
                if let Some((energy, f)) = lj_pair(pi, pj) {
                    hits.push((j, energy, f));
                }
            });
            hits.sort_unstable_by_key(|hit| hit.0);
            for &(j, energy, f) in hits.iter() {
                potential += energy;
                for d in 0..3 {
                    forces[3 * i + d] += f[d];
                    forces[3 * j + d] -= f[d];
                }
            }
            owned_hits += hits.len() as u64;
            // Owned-ghost pairs (half the energy belongs to this rank).
            hits.clear();
            grid.for_each_neighbour(cell, ghost_cells, 0, |j, pj| {
                if let Some((energy, f)) = lj_pair(pi, pj) {
                    hits.push((j, energy, f));
                }
            });
            hits.sort_unstable_by_key(|hit| hit.0);
            for &(_, energy, f) in hits.iter() {
                potential += 0.5 * energy;
                for d in 0..3 {
                    forces[3 * i + d] += f[d];
                }
            }
            ghost_hits += hits.len() as u64;
        }
        let candidates = (n * n.saturating_sub(1) / 2 + n * g) as u64;
        // Every term is an integer below 2^53, so this is the exact f64 that the
        // per-pair `+= 12.0` / `+= 20.0` chain of an all-pairs scan sums to.
        ctx.compute((12 * candidates + 20 * owned_hits + 12 * ghost_hits) as f64);
        potential
    }
}

/// The Lennard-Jones interaction of particle `pi` with `pj`: the pair energy and the
/// force on `pi`, or `None` outside the cutoff (and for coincident particles).
fn lj_pair(pi: &[f64], pj: &[f64]) -> Option<(f64, [f64; 3])> {
    let dx = pi[0] - pj[0];
    let dy = pi[1] - pj[1];
    let dz = pi[2] - pj[2];
    let r2 = dx * dx + dy * dy + dz * dz;
    let cutoff2 = CUTOFF * CUTOFF;
    if r2 >= cutoff2 || r2 < 1e-12 {
        return None;
    }
    let inv_r2 = 1.0 / r2;
    let inv_r6 = inv_r2 * inv_r2 * inv_r2;
    let inv_r12 = inv_r6 * inv_r6;
    // V = 4 (r^-12 - r^-6); F = 24 (2 r^-12 - r^-6) / r^2 * dr
    let energy = 4.0 * (inv_r12 - inv_r6);
    let scale = 24.0 * (2.0 * inv_r12 - inv_r6) * inv_r2;
    Some((energy, [scale * dx, scale * dy, scale * dz]))
}

/// Edge of a link cell: a hair above the cutoff, so that rounding in the binning
/// can never put two particles within the cutoff more than one cell apart.
const CELL_EDGE: f64 = CUTOFF * (1.0 + 1e-6);

/// Coordinates at or beyond this magnitude (and non-finite ones) collapse the grid
/// to a single cell, where every pair is a candidate. Below it, the rounding error
/// of a coordinate is far smaller than the slack in [`CELL_EDGE`].
const BIN_RANGE: f64 = 1e6;

/// A link-cell grid: an axis-aligned box of cubic cells of edge [`CELL_EDGE`] from
/// the lowest particle coordinate upwards. Cell indices are clamped into the grid,
/// which only merges cells, so any two particles within the cutoff always land in
/// the same or adjacent cells.
#[derive(Debug)]
struct CellGrid {
    lo: [f64; 3],
    dims: [usize; 3],
}

/// The force kernel's buffers, reused from one time step to the next.
#[derive(Debug, Default)]
struct ForceScratch {
    owned: CellList,
    ghosts: CellList,
    /// The in-cutoff partners of one particle: index, energy and force.
    hits: Vec<(usize, f64, [f64; 3])>,
}

/// Particles binned by cell. Cell `c` holds the particles
/// `members[start[c]..start[c + 1]]` (ascending) at `xyz[start[c]..start[c + 1]]`.
#[derive(Debug, Default)]
struct CellList {
    /// The cell of each particle, in particle order.
    cell: Vec<[usize; 3]>,
    start: Vec<usize>,
    members: Vec<usize>,
    xyz: Vec<[f64; 3]>,
}

impl CellGrid {
    /// The grid covering both particle sets (flat `x, y, z` triples). It has at most
    /// 27 cells plus two per particle, however far the particles have drifted apart.
    fn covering(a: &[f64], b: &[f64]) -> CellGrid {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        let mut in_range = true;
        for p in a.chunks_exact(3).chain(b.chunks_exact(3)) {
            for d in 0..3 {
                in_range &= p[d].abs() < BIN_RANGE;
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        let count = (a.len() + b.len()) / 3;
        if !in_range || count == 0 {
            return CellGrid {
                lo: [0.0; 3],
                dims: [1; 3],
            };
        }
        let mut dims = [0; 3];
        for d in 0..3 {
            dims[d] = ((hi[d] - lo[d]) / CELL_EDGE) as usize + 1;
        }
        while dims.iter().product::<usize>() > 2 * count + 27 {
            let widest = (0..3).max_by_key(|&d| dims[d]).unwrap_or(0);
            dims[widest] = dims[widest].div_ceil(2);
        }
        CellGrid { lo, dims }
    }

    /// The cell of a particle, per axis.
    fn cell_of(&self, p: &[f64]) -> [usize; 3] {
        let mut cell = [0; 3];
        for d in 0..3 {
            cell[d] = (((p[d] - self.lo[d]) / CELL_EDGE) as usize).min(self.dims[d] - 1);
        }
        cell
    }

    /// The index of a cell; `z` varies fastest.
    fn linear(&self, cell: [usize; 3]) -> usize {
        (cell[0] * self.dims[1] + cell[1]) * self.dims[2] + cell[2]
    }

    /// Bins particles (flat `x, y, z` triples) into `list` with a stable counting
    /// sort: count per cell, prefix-sum into offsets, then place each particle.
    fn bin(&self, particles: &[f64], list: &mut CellList) {
        list.cell.clear();
        list.cell
            .extend(particles.chunks_exact(3).map(|p| self.cell_of(p)));
        list.start.clear();
        list.start
            .resize(self.dims.iter().product::<usize>() + 1, 0);
        for &c in &list.cell {
            list.start[self.linear(c) + 1] += 1;
        }
        for c in 1..list.start.len() {
            list.start[c] += list.start[c - 1];
        }
        list.members.resize(list.cell.len(), 0);
        list.xyz.resize(list.cell.len(), [0.0; 3]);
        // Place with `start[c]` as the cursor of cell `c`; it ends at the start of
        // cell `c + 1`, so shifting by one restores the offsets.
        for (i, (&c, p)) in list.cell.iter().zip(particles.chunks_exact(3)).enumerate() {
            let slot = &mut list.start[self.linear(c)];
            list.members[*slot] = i;
            list.xyz[*slot] = [p[0], p[1], p[2]];
            *slot += 1;
        }
        list.start.pop();
        list.start.insert(0, 0);
    }

    /// Calls `visit` with the index and coordinates of every particle of `list`
    /// with index `>= first` in the 27 cells around `cell` (fewer at the faces of
    /// the grid). The three cells of a z-row are adjacent in `list`.
    fn for_each_neighbour(
        &self,
        cell: [usize; 3],
        list: &CellList,
        first: usize,
        mut visit: impl FnMut(usize, &[f64]),
    ) {
        let span = |d: usize| cell[d].saturating_sub(1)..=(cell[d] + 1).min(self.dims[d] - 1);
        let z = span(2);
        for x in span(0) {
            for y in span(1) {
                let row = self.linear([x, y, 0]);
                let (a, b) = (list.start[row + z.start()], list.start[row + z.end() + 1]);
                for (&j, pj) in list.members[a..b].iter().zip(&list.xyz[a..b]) {
                    if j >= first {
                        visit(j, pj);
                    }
                }
            }
        }
    }
}

impl ProxyApp for Comd {
    fn name(&self) -> &'static str {
        "CoMD"
    }

    fn iterations(&self) -> u64 {
        self.params.steps
    }

    fn global_units(&self, _initial_ranks: usize) -> u64 {
        // CoMD's box is already globally sized: one unit = one x lattice plane of
        // ny x nz particles, regardless of how many ranks share it.
        self.params.nx as u64
    }

    fn run(
        &self,
        ctx: &mut RankCtx,
        fti: &mut Fti,
        injector: &FaultInjector,
    ) -> Result<AppOutput, MpiError> {
        let world = ctx.world();
        // The x slab is derived from the current world, so that after a shrink the
        // survivors split the same global box among themselves.
        let (x_start, x_count) = world_slab(&world, self.params.nx);
        let (mut positions, mut velocities, slab_min, slab_max) =
            self.init_particles(world.rank(), world.size());
        let mut step: u64 = 0;

        fti.protect_partitioned(0, "positions", &positions, self.params.nx as u64);
        fti.protect_partitioned(1, "velocities", &velocities, self.params.nx as u64);
        fti.protect(2, "step", &step);
        if fti.status().is_restart() {
            fti.recover(
                ctx,
                &mut [
                    (0, &mut positions as &mut dyn Protectable),
                    (1, &mut velocities as &mut dyn Protectable),
                    (2, &mut step as &mut dyn Protectable),
                ],
            )?;
        }

        let mut forces = vec![0.0f64; positions.len()];
        let mut scratch = ForceScratch::default();
        let mut total_energy = 0.0f64;
        while step < self.params.steps {
            let current = step + 1;
            injector.maybe_fail(ctx, current)?;

            let ghosts = self.exchange_ghosts(ctx, &world, &positions, slab_min, slab_max)?;
            let potential =
                self.compute_forces(ctx, &positions, &ghosts, &mut forces, &mut scratch);

            // Velocity Verlet (mass = 1): a single force evaluation per step, using the
            // previous step's forces implicitly through the half-kick ordering.
            let mut kinetic = 0.0;
            for i in 0..velocities.len() {
                velocities[i] += DT * forces[i];
                positions[i] += DT * velocities[i];
                kinetic += 0.5 * velocities[i] * velocities[i];
            }
            ctx.compute(5.0 * velocities.len() as f64);

            total_energy = ctx.allreduce_sum_f64(&world, potential + kinetic)?;
            step = current;

            if fti.should_checkpoint(step) {
                fti.checkpoint(
                    ctx,
                    step,
                    &[
                        (0, &positions as &dyn Protectable),
                        (1, &velocities as &dyn Protectable),
                        (2, &step as &dyn Protectable),
                    ],
                )?;
            }
        }

        fti.finalize(ctx)?;
        let local = checksum(&positions) + checksum(&velocities);
        let global = ctx.allreduce_sum_f64(&world, local)?;
        Ok(AppOutput {
            app: self.name(),
            iterations: step,
            checksum: global,
            figure_of_merit: total_energy,
            owned_units: (x_start as u64, x_count as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::run_standalone;
    use fti::store::CheckpointStore;
    use fti::FtiConfig;
    use mpisim::{Cluster, ClusterConfig};

    fn small() -> Comd {
        Comd::new(ComdParams::new(8, 4, 4, 10))
    }

    #[test]
    fn particle_counts() {
        assert_eq!(ComdParams::new(8, 4, 4, 1).global_particles(), 128);
    }

    #[test]
    fn particles_are_distributed_across_ranks() {
        let app = small();
        let (p0, v0, min0, max0) = app.init_particles(0, 4);
        let (p1, _, min1, _) = app.init_particles(1, 4);
        assert_eq!(p0.len(), 2 * 4 * 4 * 3);
        assert_eq!(v0.len(), p0.len());
        assert!(max0 <= min1 + 1e-9);
        assert!(min0 < max0);
        // Positions of rank 1 start where rank 0's slab ends.
        assert!(p1.chunks_exact(3).all(|p| p[0] > max0 - 0.1));
    }

    #[test]
    fn energy_stays_finite_and_simulation_is_deterministic() {
        let run = || {
            let cluster = Cluster::new(ClusterConfig::with_ranks(4));
            let outcome = cluster.run(|ctx| {
                run_standalone(
                    &small(),
                    ctx,
                    CheckpointStore::shared(),
                    FtiConfig::default(),
                )
            });
            assert!(outcome.all_ok(), "{:?}", outcome.errors());
            let out = outcome.value_of(0).clone();
            assert_eq!(out.app, "CoMD");
            assert_eq!(out.iterations, 10);
            assert!(out.figure_of_merit.is_finite());
            assert!(out.checksum.is_finite());
            out.checksum
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn forces_are_newton_balanced_without_ghosts() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(1));
        let outcome = cluster.run(|ctx| {
            let app = small();
            let (positions, _, _, _) = app.init_particles(0, 1);
            let mut forces = vec![0.0; positions.len()];
            let _ = app.compute_forces(
                ctx,
                &positions,
                &[],
                &mut forces,
                &mut ForceScratch::default(),
            );
            // Newton's third law: the net force over an isolated system is ~zero.
            let net: f64 = forces.iter().sum();
            Ok(net.abs())
        });
        assert!(*outcome.value_of(0) < 1e-9);
    }

    /// The all-pairs force kernel the link-cell kernel replaced: the reference its
    /// forces, potential and charged flops must match bit for bit.
    fn all_pairs_forces(
        ctx: &mut RankCtx,
        positions: &[f64],
        ghosts: &[f64],
        forces: &mut [f64],
        _scratch: &mut ForceScratch,
    ) -> f64 {
        let n = positions.len() / 3;
        forces.iter_mut().for_each(|f| *f = 0.0);
        let mut potential = 0.0;
        let mut flops = 0.0;
        for i in 0..n {
            let pi = &positions[3 * i..3 * i + 3];
            for j in (i + 1)..n {
                let pj = &positions[3 * j..3 * j + 3];
                flops += 12.0;
                if let Some((energy, f)) = lj_pair(pi, pj) {
                    potential += energy;
                    for d in 0..3 {
                        forces[3 * i + d] += f[d];
                        forces[3 * j + d] -= f[d];
                    }
                    flops += 20.0;
                }
            }
            for pj in ghosts.chunks_exact(3) {
                flops += 12.0;
                if let Some((energy, f)) = lj_pair(pi, pj) {
                    potential += 0.5 * energy;
                    for d in 0..3 {
                        forces[3 * i + d] += f[d];
                    }
                    flops += 12.0;
                }
            }
        }
        ctx.compute(flops);
        potential
    }

    /// The bits of `x`, with every NaN mapped to one: Rust leaves the sign and
    /// payload of a NaN produced by arithmetic unspecified.
    fn bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    type Kernel = fn(&mut RankCtx, &[f64], &[f64], &mut [f64], &mut ForceScratch) -> f64;

    /// Runs one force kernel on a fresh single-rank cluster and returns the bits of
    /// the forces, the potential and the virtual time charged. A link-cell step
    /// with the roles of the two sets swapped runs first, so that the kernel finds
    /// the stale buffers of a previous step in its scratch.
    fn kernel_bits(kernel: Kernel, positions: &[f64], ghosts: &[f64]) -> (Vec<u64>, u64, u64) {
        let cluster = Cluster::new(ClusterConfig::with_ranks(1));
        let outcome = cluster.run(|ctx| {
            let mut scratch = ForceScratch::default();
            let mut forces = vec![0.0; ghosts.len()];
            small().compute_forces(ctx, ghosts, positions, &mut forces, &mut scratch);
            let mut forces = vec![f64::NAN; positions.len()];
            let potential = kernel(ctx, positions, ghosts, &mut forces, &mut scratch);
            let forces = forces.iter().map(|&f| bits(f)).collect::<Vec<_>>();
            Ok((forces, bits(potential), ctx.now().as_secs().to_bits()))
        });
        outcome.value_of(0).clone()
    }

    fn link_cell_forces(
        ctx: &mut RankCtx,
        positions: &[f64],
        ghosts: &[f64],
        forces: &mut [f64],
        scratch: &mut ForceScratch,
    ) -> f64 {
        small().compute_forces(ctx, positions, ghosts, forces, scratch)
    }

    /// Asserts the link-cell kernel reproduces the all-pairs reference bit for bit.
    pub(super) fn assert_matches_reference(positions: &[f64], ghosts: &[f64]) {
        let fast = kernel_bits(link_cell_forces, positions, ghosts);
        let reference = kernel_bits(all_pairs_forces, positions, ghosts);
        assert_eq!(fast.0, reference.0, "forces differ");
        assert_eq!(fast.1, reference.1, "potential differs");
        assert_eq!(fast.2, reference.2, "charged virtual time differs");
    }

    /// A jittered `nx x ny x nz` lattice whose x planes start at plane `x0`.
    pub(super) fn jittered_lattice(
        rng: &mut DetRng,
        x0: i64,
        dims: [usize; 3],
        jitter: f64,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        for ix in 0..dims[0] {
            for iy in 0..dims[1] {
                for iz in 0..dims[2] {
                    let site = [(x0 + ix as i64) as f64, iy as f64, iz as f64];
                    for s in site {
                        out.push(s * LATTICE + jitter * (rng.next_f64() - 0.5));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn link_cells_match_all_pairs_on_edge_cases() {
        let mut rng = DetRng::new(7);
        let lattice = jittered_lattice(&mut rng, 0, [4, 3, 3], 0.1);
        let strip = jittered_lattice(&mut rng, 4, [2, 3, 3], 0.1);
        // Empty owned set (ranks with empty slabs), with and without ghosts.
        assert_matches_reference(&[], &[]);
        assert_matches_reference(&[], &strip);
        // No ghosts (the end ranks of a single-rank world).
        assert_matches_reference(&lattice, &[]);
        // Pairs just inside the cutoff that straddle a cell boundary on each axis:
        // the particle at the origin pins the grid, the boundary lies at CELL_EDGE.
        let inside = CUTOFF * (1.0 - 1e-12);
        let mut straddling = vec![0.0, 0.0, 0.0];
        for d in 0..3 {
            let mut a = [10.0; 3];
            a[d] = CELL_EDGE - 1e-7;
            let mut b = a;
            b[d] += inside;
            straddling.extend_from_slice(&a);
            straddling.extend_from_slice(&b);
        }
        assert_matches_reference(&straddling, &[]);
        assert_matches_reference(&straddling[3..], &straddling[..3]);
        let (forces, _, _) = kernel_bits(link_cell_forces, &straddling, &[]);
        for d in 0..3 {
            let a = 1 + 2 * d;
            assert_ne!(
                f64::from_bits(forces[3 * a + d]),
                0.0,
                "pair {d} must interact"
            );
        }
        // Particles drifted far apart (the grid is capped), and beyond the binning
        // range or non-finite (the grid collapses to one cell, and a NaN particle
        // interacts with every other one, as in the all-pairs scan).
        for far in [1e4, 1e7, f64::INFINITY, f64::NAN] {
            let mut drifted = lattice.clone();
            drifted[0] = far;
            drifted[4] = -far;
            assert_matches_reference(&drifted, &strip);
        }
    }

    #[test]
    fn ghost_exchange_only_sends_boundary_strips() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let outcome = cluster.run(|ctx| {
            let app = Comd::new(ComdParams::new(16, 2, 2, 1));
            let world = ctx.world();
            let (positions, _, slab_min, slab_max) = app.init_particles(ctx.rank(), 2);
            let ghosts = app.exchange_ghosts(ctx, &world, &positions, slab_min, slab_max)?;
            // Each rank owns 8 lattice planes of 4 particles; the cutoff of 2.5 at a
            // lattice spacing of 1.2 selects about 3 planes (12 particles) per side.
            Ok((positions.len() / 3, ghosts.len() / 3))
        });
        assert!(outcome.all_ok());
        for r in outcome.results() {
            let (owned, ghosts) = r.as_ref().unwrap();
            assert_eq!(*owned, 32);
            assert!(*ghosts > 0 && *ghosts < *owned);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{assert_matches_reference, jittered_lattice};
    use crate::common::DetRng;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The link-cell kernel is bit-identical to the all-pairs reference over random
        /// slabs (empty ones included), jitter and ghost strips on either side.
        #[test]
        fn link_cells_are_bit_identical_to_all_pairs(
            nx in 0usize..6,
            ny in 1usize..5,
            nz in 1usize..5,
            jitter_pct in 0usize..120,
            prev_planes in 0usize..3,
            next_planes in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = DetRng::new(seed);
            let jitter = jitter_pct as f64 / 100.0;
            let positions = jittered_lattice(&mut rng, 0, [nx, ny, nz], jitter);
            let mut ghosts =
                jittered_lattice(&mut rng, -(prev_planes as i64), [prev_planes, ny, nz], jitter);
            ghosts.extend(jittered_lattice(&mut rng, nx as i64, [next_planes, ny, nz], jitter));
            assert_matches_reference(&positions, &ghosts);
        }
    }
}
