//! The measured loops. All of them are closed: a caller needs `y` before
//! it sends the next `x`, as a solver iteration or a client waiting for
//! its reply does. Every output vector is checked against the reference
//! outside the timed region; a mismatch or an error is a failed operation.
//!
//! A pass is a fixed amount of work derived from the seed. The same
//! function runs traced and untraced; tracing only adds spans around the
//! calls it already times.

use crate::inputs::{
    rotate_rows, BurstSchedule, BurstSlot, MatrixInput, ServeSchedule, ServeSlot, UNIVERSE_SHIFTS,
};
use crate::measure::{timed, PassStats, Session};
use crate::refkernel::{matches_columns, matches_rotated, ref_csr_spmv};
use crate::setup::{build_service, Model, Serving, SlotState, Workload};
use crate::spans::Recorder;
use crate::stats::median;
use morpheus::{ConvertPath, DynamicMatrix};
use morpheus_oracle::{IngressError, MatrixHandle};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

fn ns(seconds: f64) -> u64 {
    (seconds * 1e9) as u64
}

/// Notes what a registration realised: format, fallback, conversion path,
/// storage against the reference CSR arrays.
fn note_registration(st: &mut PassStats, handle: &MatrixHandle<f64>, input: &MatrixInput) {
    let report = handle.report();
    st.registers += 1;
    st.formats[handle.format_id().index()] += 1;
    st.fallbacks += u64::from(report.chosen != report.predicted);
    if report.convert.path != ConvertPath::Identity {
        st.converts += 1;
        st.direct_converts += u64::from(report.convert.path == ConvertPath::Direct);
    }
    let stored: usize = match handle.partition() {
        Some(p) => p.shards().iter().map(|s| s.matrix().storage_bytes()).sum(),
        None => handle.matrix().storage_bytes(),
    };
    let csr = 8 * (input.reference.row_ptr.len() + 2 * input.reference.nnz());
    st.storage_vs_csr.push(stored as f64 / csr as f64);
}

/// How a solver workload iterates on each matrix.
#[derive(Debug, Clone, Copy)]
pub struct SolverShape {
    /// Iterations per matrix (`N` of the paper's Eq. 2).
    pub iters: usize,
    /// Iteration blocks, each preceded by a block of reference executions.
    pub blocks: usize,
    pub refs_per_block: usize,
    /// `register_partitioned` instead of `register`.
    pub partitioned: bool,
}

impl SolverShape {
    pub fn of(workload: Workload) -> SolverShape {
        match workload {
            Workload::SolverShort => {
                SolverShape { iters: 20, blocks: 4, refs_per_block: 2, partitioned: false }
            }
            _ => SolverShape { iters: 300, blocks: 6, refs_per_block: 3, partitioned: true },
        }
    }
}

/// One solver pass: a fresh service, then for every matrix in `order`
/// `register` and `shape.iters` iterations of `service.spmv`, in blocks
/// interleaved with blocks of the reference kernel on the same matrix.
pub fn solver_pass(
    shape: SolverShape,
    workers: usize,
    model: &Model,
    inputs: &[MatrixInput],
    order: &[usize],
    trace: &mut Option<Recorder>,
) -> PassStats {
    let wall = Instant::now();
    let service = build_service(model, workers);
    let mut st = PassStats::default();
    for &i in order {
        let input = &inputs[i];
        let id = i as u64;
        let session = trace.as_mut().map(|r| r.open("solver.session", id));
        let m = DynamicMatrix::from(input.coo.clone());
        st.attempted += 1;
        let (registered, t0, t_reg) =
            timed(|| if shape.partitioned { service.register_partitioned(m) } else { service.register(m) });
        if let Some(r) = trace {
            r.leaf("serve.register", id, t0, ns(t_reg));
        }
        let Ok(handle) = registered else {
            st.failed += 1;
            if let (Some(r), Some(s)) = (trace.as_mut(), session) {
                r.close(s);
            }
            continue;
        };
        note_registration(&mut st, &handle, input);

        let mut y = vec![0.0; input.coo.nrows()];
        let mut y_ref = vec![0.0; input.coo.nrows()];
        let mut ref_samples = Vec::with_capacity(shape.blocks * shape.refs_per_block);
        let mut iter_s = Vec::with_capacity(shape.iters);
        let per_block = shape.iters / shape.blocks;
        for block in 0..shape.blocks {
            // Switching between the reference's arrays and the program's
            // evicts the other side; a solver iterating on one of them
            // never pays that. Each side therefore runs once untimed
            // before its timed calls (the output is still checked).
            ref_csr_spmv(&input.reference, &input.xs[0], &mut y_ref);
            for k in 0..shape.refs_per_block {
                let ((), t0, dt) = timed(|| ref_csr_spmv(&input.reference, &input.xs[k % 2], &mut y_ref));
                ref_samples.push(dt);
                if let Some(r) = trace {
                    r.leaf("bench.reference", id, t0, ns(dt));
                }
            }
            for it in 0..=per_block {
                // Alternating right-hand sides: a kernel that leaves `y`
                // untouched cannot pass the check on the next iteration.
                let k = (block * per_block + it) % 2;
                let (res, t0, dt) = timed(|| service.spmv(&handle, &input.xs[k], &mut y));
                st.attempted += 1;
                if res.is_err() || !matches_rotated(&y, &input.ys[k], 0, 1.0) {
                    st.failed += 1;
                }
                if it == 0 {
                    continue;
                }
                iter_s.push(dt);
                if let Some(r) = trace {
                    r.leaf("serve.spmv", id, t0, ns(dt));
                }
            }
        }
        let t_ref = median(&ref_samples);
        let ratios: Vec<f64> = iter_s.iter().map(|dt| dt / t_ref).collect();
        st.tune_cost.push(t_reg / t_ref);
        st.sessions.push(Session { tune_cost: t_reg / t_ref, warm_ratio: median(&ratios), t_ref_s: t_ref });
        st.req_ratio.extend(ratios);
        st.ref_ns.push(t_ref * 1e9);
        st.ref_s += iter_s.len() as f64 * t_ref;
        st.op_s += t_reg + iter_s.iter().sum::<f64>();

        if let (Some(r), Some(s)) = (trace.as_mut(), session) {
            r.close(s);
        }
    }
    let (decisions, plans) = (service.cache_stats(), service.plan_cache_stats());
    st.decision_cache = (decisions.hits, decisions.misses);
    st.plan_cache = (plans.hits, plans.misses);
    st.wall_s = wall.elapsed().as_secs_f64();
    st
}

/// Cache counters of the shared service, to be subtracted around a pass.
fn cache_counters(serving: &Serving) -> [u64; 4] {
    let (d, p) = (serving.service.cache_stats(), serving.service.plan_cache_stats());
    [d.hits, d.misses, p.hits, p.misses]
}

fn note_cache_delta(st: &mut PassStats, before: [u64; 4], after: [u64; 4]) {
    st.decision_cache = (after[0] - before[0], after[1] - before[1]);
    st.plan_cache = (after[2] - before[2], after[3] - before[3]);
}

/// Raw samples one client collected; folded once the pass's reference
/// times are known.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    /// `(slot, seconds)` of reference executions.
    reference: Vec<(usize, f64)>,
    /// `(slot, seconds, overlapped a registration)` of warm `spmv`.
    spmv: Vec<(usize, f64, bool)>,
    /// `(slot, seconds, reference executions it stands for)` of the rest.
    other: Vec<(usize, f64, f64)>,
    /// `(slot, seconds)` of per-call tunes served from the decision cache.
    tune_hits: Vec<(usize, f64)>,
    /// `(slot, seconds)` of registrations.
    registers: Vec<(usize, f64)>,
    registered: PassStats,
    trace: Option<Recorder>,
}

fn read_slot(serving: &Serving, slot: usize) -> SlotState {
    serving.slots[slot].read().expect("no client panics while holding a slot").clone()
}

/// Registers rotation `shift` of the slot's base matrix and swaps the new
/// handle in. Returns the seconds `register` took.
fn replace_slot(
    serving: &Serving,
    inputs: &[MatrixInput],
    slot: usize,
    shift: usize,
    log: &mut ClientLog,
    registering: &AtomicUsize,
) {
    let input = &inputs[slot];
    let shift = shift % input.coo.nrows();
    let m = DynamicMatrix::from(rotate_rows(&input.coo, shift));
    log.attempted += 1;
    registering.fetch_add(1, Ordering::Relaxed);
    let (res, t0, dt) = timed(|| serving.service.register(m));
    registering.fetch_sub(1, Ordering::Relaxed);
    if let Some(r) = &mut log.trace {
        r.leaf("serve.register", slot as u64, t0, ns(dt));
    }
    match res {
        Ok(handle) => {
            note_registration(&mut log.registered, &handle, input);
            log.registers.push((slot, dt));
            *serving.slots[slot].write().expect("no client panics while holding a slot") =
                SlotState { handle, shift };
        }
        Err(_) => log.failed += 1,
    }
}

fn reference_slot(inputs: &[MatrixInput], slot: usize, y: &mut [f64], log: &mut ClientLog) {
    let input = &inputs[slot];
    let y = &mut y[..input.coo.nrows()];
    // The unit is the *warm* reference: a property of matrix and machine,
    // not of what the schedule happened to leave in the cache.
    ref_csr_spmv(&input.reference, &input.xs[0], y);
    let ((), t0, dt) = timed(|| ref_csr_spmv(&input.reference, &input.xs[0], y));
    log.reference.push((slot, dt));
    if let Some(r) = &mut log.trace {
        r.leaf("bench.reference", slot as u64, t0, ns(dt));
    }
}

fn serve_client(
    serving: &Serving,
    inputs: &[MatrixInput],
    schedule: &[ServeSlot],
    traced: bool,
    registering: &AtomicUsize,
) -> ClientLog {
    let mut log = ClientLog { trace: traced.then(Recorder::new), ..Default::default() };
    let max_rows = inputs.iter().map(|m| m.coo.nrows()).max().unwrap_or(0);
    let mut y = vec![0.0; max_rows * 8];
    for &op in schedule {
        match op {
            ServeSlot::Reference { slot } => reference_slot(inputs, slot, &mut y, &mut log),
            ServeSlot::Spmv { slot, xi } => {
                let input = &inputs[slot];
                let state = read_slot(serving, slot);
                let y = &mut y[..input.coo.nrows()];
                let before = traced && registering.load(Ordering::Relaxed) > 0;
                let (res, t0, dt) = timed(|| serving.service.spmv(&state.handle, &input.xs[xi], y));
                let overlapped = before || (traced && registering.load(Ordering::Relaxed) > 0);
                log.attempted += 1;
                if res.is_err() || !matches_rotated(y, &input.ys[xi], state.shift, 1.0) {
                    log.failed += 1;
                }
                log.spmv.push((slot, dt, overlapped));
                if let Some(r) = &mut log.trace {
                    r.leaf("serve.spmv", slot as u64, t0, ns(dt));
                }
            }
            ServeSlot::Spmm { slot } => {
                let input = &inputs[slot];
                let state = read_slot(serving, slot);
                let y = &mut y[..input.coo.nrows() * 8];
                let (res, t0, dt) =
                    timed(|| serving.service.spmm(&state.handle, &serving.x_blocks[slot], y, 8));
                log.attempted += 1;
                if res.is_err() || !matches_columns(y, &input.ys, 8, state.shift) {
                    log.failed += 1;
                }
                log.other.push((slot, dt, 8.0));
                if let Some(r) = &mut log.trace {
                    r.leaf("serve.spmm", slot as u64, t0, ns(dt));
                }
            }
            ServeSlot::TuneClone { u, xi } => {
                let slot = u % inputs.len();
                let shift = 1 + u / inputs.len();
                debug_assert!(shift <= UNIVERSE_SHIFTS);
                let input = &inputs[slot];
                let mut m = DynamicMatrix::from(rotate_rows(&input.coo, shift));
                let y = &mut y[..input.coo.nrows()];
                let (res, t0, dt) = timed(|| serving.service.tune_and_spmv(&mut m, &input.xs[xi], y));
                log.attempted += 1;
                match res {
                    Ok(report) if matches_rotated(y, &input.ys[xi], shift, 1.0) => {
                        if report.cache_hit {
                            log.tune_hits.push((slot, dt));
                        }
                    }
                    _ => log.failed += 1,
                }
                log.other.push((slot, dt, 1.0));
                if let Some(r) = &mut log.trace {
                    r.leaf("serve.tune_and_spmv", slot as u64, t0, ns(dt));
                }
            }
            ServeSlot::Register { slot, shift } => {
                replace_slot(serving, inputs, slot, shift, &mut log, registering)
            }
        }
    }
    log
}

/// Per-slot reference time of a pass: the median of the pass's samples.
/// Every slot is sampled three more times once the clients are done, so
/// even a handle the schedule never sampled has a unit.
fn slot_units(inputs: &[MatrixInput], logs: &mut [ClientLog]) -> Vec<f64> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut y = vec![0.0; inputs.iter().map(|m| m.coo.nrows()).max().unwrap_or(0)];
    let mut warm = ClientLog::default();
    for _ in 0..3 {
        (0..inputs.len()).for_each(|slot| reference_slot(inputs, slot, &mut y, &mut warm));
    }
    for (slot, dt) in warm.reference.into_iter().chain(logs.iter_mut().flat_map(|l| l.reference.drain(..))) {
        samples[slot].push(dt);
    }
    samples.iter().map(|s| median(s)).collect()
}

/// Folds client logs into pass statistics, in reference units.
fn fold_logs(inputs: &[MatrixInput], mut logs: Vec<ClientLog>, trace: &mut Option<Recorder>) -> PassStats {
    let unit = slot_units(inputs, &mut logs);
    let mut st = PassStats { ref_ns: unit.iter().map(|u| u * 1e9).collect(), ..Default::default() };
    let mut warm_by_slot: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut registers = Vec::new();
    for log in logs {
        st.attempted += log.attempted;
        st.failed += log.failed;
        for (slot, dt, overlapped) in log.spmv {
            let ratio = dt / unit[slot];
            st.req_ratio.push(ratio);
            warm_by_slot[slot].push(ratio);
            if log.trace.is_some() {
                let bucket = if overlapped { &mut st.reads_during_register } else { &mut st.reads_clear };
                bucket.push(ratio);
            }
            st.ref_s += unit[slot];
            st.op_s += dt;
        }
        for (slot, dt, refs) in log.other {
            st.ref_s += refs * unit[slot];
            st.op_s += dt;
        }
        st.hit_path_ratio.extend(log.tune_hits.iter().map(|&(slot, dt)| dt / unit[slot]));
        registers.extend(log.registers);
        st.merge(log.registered);
        if let (Some(main), Some(client)) = (trace.as_mut(), log.trace) {
            main.absorb(client);
        }
    }
    let pass_p50 = median(&st.req_ratio);
    for (slot, dt) in registers {
        // A registration stands for no reference work of its own; its
        // time counts against the throughput it interrupts.
        st.op_s += dt;
        st.tune_cost.push(dt / unit[slot]);
        let warm_ratio = if warm_by_slot[slot].is_empty() { pass_p50 } else { median(&warm_by_slot[slot]) };
        st.sessions.push(Session { tune_cost: dt / unit[slot], warm_ratio, t_ref_s: unit[slot] });
    }
    st
}

/// One `serve_mixed` pass: every client runs its schedule against the one
/// shared service, executing inline (one pool worker).
pub fn serve_pass(
    serving: &Serving,
    inputs: &[MatrixInput],
    schedules: &mut [ServeSchedule],
    len: usize,
    trace: &mut Option<Recorder>,
) -> PassStats {
    let wall = Instant::now();
    let caches = cache_counters(serving);
    let plans: Vec<Vec<ServeSlot>> = schedules.iter_mut().map(|s| s.next_pass(len)).collect();
    let registering = AtomicUsize::new(0);
    let traced = trace.is_some();
    let pass = trace.as_mut().map(|r| r.open("serve.pass", 0));
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = plans
            .iter()
            .map(|plan| scope.spawn(|| serve_client(serving, inputs, plan, traced, &registering)))
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect()
    });
    let mut st = fold_logs(inputs, logs, trace);
    note_cache_delta(&mut st, caches, cache_counters(serving));
    if let (Some(r), Some(p)) = (trace.as_mut(), pass) {
        r.close(p);
    }
    st.wall_s = wall.elapsed().as_secs_f64();
    st
}

/// One `ingress_burst` pass: one client submitting bursts through the
/// ingress and waiting for every ticket; the pump is the second thread.
pub fn ingress_pass(
    serving: &Serving,
    inputs: &[MatrixInput],
    schedule: &mut BurstSchedule,
    len: usize,
    trace: &mut Option<Recorder>,
) -> PassStats {
    let wall = Instant::now();
    let caches = cache_counters(serving);
    let ingress = serving.ingress.as_ref().expect("ingress_burst set-up starts the ingress");
    let registering = AtomicUsize::new(0);
    let pass = trace.as_mut().map(|r| r.open("ingress.pass", 0));
    let mut log = ClientLog { trace: trace.is_some().then(Recorder::new), ..Default::default() };
    let mut y = vec![0.0; inputs.iter().map(|m| m.coo.nrows()).max().unwrap_or(0)];
    for op in schedule.next_pass(len) {
        match op {
            BurstSlot::Reference { slot } => reference_slot(inputs, slot, &mut y, &mut log),
            BurstSlot::Register { slot, shift } => {
                replace_slot(serving, inputs, slot, shift, &mut log, &registering)
            }
            BurstSlot::Burst { slot, size, xi, tenant } => {
                let input = &inputs[slot];
                let state = read_slot(serving, slot);
                let tenant = if tenant == 0 { "tenant-a" } else { "tenant-b" };
                // `submit` takes the vector by value; the copies are the
                // caller's, made before the clock starts.
                let xs: Vec<Vec<f64>> = (0..size).map(|_| input.xs[xi].clone()).collect();
                let t0 = Instant::now();
                let tickets: Vec<_> =
                    xs.into_iter().map(|x| ingress.submit(tenant, &state.handle, x)).collect();
                let replies: Vec<Result<Vec<f64>, IngressError>> =
                    tickets.into_iter().map(|t| t.and_then(|ticket| ticket.wait())).collect();
                let dt = t0.elapsed().as_secs_f64();
                log.attempted += size as u64;
                let bad = replies
                    .iter()
                    .filter(|r| !matches!(r, Ok(y) if matches_rotated(y, &input.ys[xi], state.shift, 1.0)))
                    .count();
                log.failed += bad as u64;
                // One sample per burst: wall over the reference time of
                // the requests it carried.
                log.spmv.push((slot, dt / size as f64, false));
                log.other.push((slot, dt - dt / size as f64, (size - 1) as f64));
                if let Some(r) = &mut log.trace {
                    r.leaf("ingress.burst", slot as u64, t0, ns(dt));
                }
            }
        }
    }
    let mut st = fold_logs(inputs, vec![log], trace);
    note_cache_delta(&mut st, caches, cache_counters(serving));
    if let (Some(r), Some(p)) = (trace.as_mut(), pass) {
        r.close(p);
    }
    st.wall_s = wall.elapsed().as_secs_f64();
    st
}
