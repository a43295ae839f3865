//! Simulate once per plan: a GpuSim plan's first execution runs the
//! simulated kernel and memoises its transaction statistics; later
//! executions move the bytes with the `ttlg-cpu` host kernel. Both must
//! produce the reference bytes, and every simulated report field must be
//! bit-identical across executions and equal to `Transposer::time_plan`.

use std::collections::BTreeSet;
use std::sync::Barrier;
use ttlg::{
    applicable_schemas, Backend, Problem, Schema, TransposeOptions, TransposeReport, Transposer,
};
use ttlg_gpu_sim::TransactionStats;
use ttlg_tensor::rng::StdRng;
use ttlg_tensor::{reference, DenseTensor, Element, Permutation, Shape};

/// The report fields the simulation determines, with every float as its
/// bit pattern so equality is exact.
fn simulated_fields(r: &TransposeReport) -> (Schema, u64, u64, TransactionStats, [u64; 7]) {
    let t = &r.timing;
    (
        r.schema,
        r.kernel_time_ns.to_bits(),
        r.bandwidth_gbps.to_bits(),
        r.stats,
        [
            t.time_ns,
            t.dram_ns,
            t.smem_ns,
            t.instr_ns,
            t.launch_ns,
            t.mlp,
            t.tail,
        ]
        .map(f64::to_bits),
    )
}

/// Seeded problems at ranks 2–6 with awkward (non-multiple) extents,
/// plus two Copy-reducible permutations (identity, and a swap of an
/// extent-1 dimension that fusion drops).
fn problems(seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![
        (vec![37, 11, 5], vec![0, 1, 2]),
        (vec![7, 1, 45], vec![1, 0, 2]),
    ];
    for rank in 2..=6usize {
        for _ in 0..2 {
            // Keep volumes small: debug-build simulation is slow.
            let max_extent: usize = [0, 0, 67, 19, 9, 6, 4][rank];
            let extents: Vec<usize> = (0..rank)
                .map(|_| rng.gen_range(2..max_extent + 1))
                .collect();
            let mut perm: Vec<usize> = (0..rank).collect();
            while perm.iter().enumerate().all(|(i, &p)| i == p) {
                rng.shuffle(&mut perm);
            }
            out.push((extents, perm));
        }
    }
    // Fixed cases that guarantee every schema family appears.
    out.extend([
        (vec![50, 7, 9], vec![0, 2, 1]),        // FVI-Match-Large
        (vec![9, 10, 11, 5], vec![0, 3, 2, 1]), // FVI-Match-Small
        (vec![33, 5, 37], vec![2, 1, 0]),       // Orthogonal-Distinct
        (vec![6, 3, 7, 9], vec![2, 1, 3, 0]),   // Orthogonal-Arbitrary
    ]);
    out
}

/// Every plan the sweep exercises for one problem: the planner's own
/// choice plus each applicable schema forced.
fn option_sets(shape: &Shape, perm: &Permutation) -> Vec<TransposeOptions> {
    let problem = Problem::new(shape, perm).unwrap();
    let mut sets = vec![TransposeOptions::default()];
    for schema in applicable_schemas(&problem) {
        sets.push(TransposeOptions {
            forced_schema: Some(schema),
            ..Default::default()
        });
    }
    sets
}

fn sweep<E: Element>(seed: u64) -> BTreeSet<String> {
    let t = Transposer::new_k40c();
    let mut schemas = BTreeSet::new();
    for (extents, perm) in problems(seed) {
        let shape = Shape::new(&extents).unwrap();
        let perm = Permutation::new(&perm).unwrap();
        let input: DenseTensor<E> = DenseTensor::iota(shape.clone());
        let expect = reference::transpose_reference(&input, &perm).unwrap();
        for opts in option_sets(&shape, &perm) {
            let Ok(plan) = t.plan::<E>(&shape, &perm, &opts) else {
                continue; // a forced schema with no admissible candidate
            };
            let case = format!("{extents:?} perm {perm} {:?}", opts.forced_schema);
            let timed = simulated_fields(&t.time_plan(&plan).unwrap());
            // First execution simulates; the second and third run the
            // host kernel.
            for run in 0..3 {
                let (out, report) = t.execute(&plan, &input).unwrap();
                assert_eq!(out.data(), expect.data(), "bytes, run {run}: {case}");
                assert_eq!(
                    simulated_fields(&report),
                    timed,
                    "report, run {run}: {case}"
                );
            }
            schemas.insert(plan.schema().to_string());
        }
    }
    schemas
}

#[test]
fn host_kernel_executions_match_the_reference_and_the_simulated_report() {
    let want: BTreeSet<String> = [
        Schema::Copy,
        Schema::FviMatchLarge,
        Schema::FviMatchSmall,
        Schema::OrthogonalDistinct,
        Schema::OrthogonalArbitrary,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for seed in [7u64, 2024] {
        let u32_schemas = sweep::<u32>(seed);
        let f64_schemas = sweep::<f64>(seed);
        for (dtype, seen) in [("u32", u32_schemas), ("f64", f64_schemas)] {
            assert!(
                want.is_subset(&seen),
                "seed {seed} {dtype}: saw {seen:?}, want {want:?}"
            );
        }
    }
}

#[test]
fn racing_first_executions_agree() {
    const THREADS: usize = 8;
    let t = Transposer::new_k40c();
    let shape = Shape::new(&[33, 5, 37]).unwrap();
    let perm = Permutation::new(&[2, 1, 0]).unwrap();
    let input: DenseTensor<f64> = DenseTensor::iota(shape.clone());
    let expect = reference::transpose_reference(&input, &perm).unwrap();
    let plan = t
        .plan::<f64>(&shape, &perm, &TransposeOptions::default())
        .unwrap();
    let barrier = Barrier::new(THREADS);
    let reports: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let (out, report) = t.execute(&plan, &input).unwrap();
                    assert_eq!(out.data(), expect.data(), "racing execution bytes");
                    simulated_fields(&report)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let timed = simulated_fields(&t.time_plan(&plan).unwrap());
    assert!(reports.iter().all(|r| *r == timed), "racing reports differ");
    // After the race the plan is warm: later executions agree too.
    let (out, report) = t.execute(&plan, &input).unwrap();
    assert_eq!(out.data(), expect.data());
    assert_eq!(simulated_fields(&report), timed);
}

#[test]
fn disjoint_write_checked_plans_report_identically_every_time() {
    let t = Transposer::new_k40c();
    let opts = TransposeOptions {
        check_disjoint_writes: true,
        ..Default::default()
    };
    for (extents, perm) in [
        (vec![6, 3, 7, 9], vec![2, 1, 3, 0]),
        (vec![9, 10, 11, 5], vec![0, 3, 2, 1]),
    ] {
        let shape = Shape::new(&extents).unwrap();
        let perm = Permutation::new(&perm).unwrap();
        let input: DenseTensor<u32> = DenseTensor::iota(shape.clone());
        let expect = reference::transpose_reference(&input, &perm).unwrap();
        let plan = t.plan::<u32>(&shape, &perm, &opts).unwrap();
        let timed = simulated_fields(&t.time_plan(&plan).unwrap());
        for run in 0..3 {
            let (out, report) = t.execute(&plan, &input).unwrap();
            assert_eq!(out.data(), expect.data(), "{extents:?} run {run}");
            assert_eq!(simulated_fields(&report), timed, "{extents:?} run {run}");
        }
    }
}

/// The autotuner measures a candidate with `measure_candidate` and then
/// installs `plan_for_candidate` for it, whose first execution simulates
/// again. Seeding that plan's memo from the measurement is sound only
/// while the two agree; pin it for every GpuSim candidate `plan_topk`
/// ranks on one problem of each schema.
#[test]
fn tuner_measurement_equals_the_installed_plans_first_execution() {
    let t = Transposer::new_k40c();
    let opts = TransposeOptions::default();
    let mut schemas = BTreeSet::new();
    for (extents, perm) in [
        (vec![50, 7, 9], vec![0, 2, 1]),
        (vec![9, 10, 11, 5], vec![0, 3, 2, 1]),
        (vec![33, 5, 37], vec![2, 1, 0]),
        (vec![6, 3, 7, 9], vec![2, 1, 3, 0]),
    ] {
        let shape = Shape::new(&extents).unwrap();
        let perm = Permutation::new(&perm).unwrap();
        let input: DenseTensor<f64> = DenseTensor::iota(shape.clone());
        let expect = reference::transpose_reference(&input, &perm).unwrap();
        let (_, ranked) = t.plan_topk::<f64>(&shape, &perm, &opts, 8).unwrap();
        for rc in ranked {
            assert_eq!(rc.candidate.backend(), Backend::GpuSim);
            let case = format!("{extents:?} {:?}", rc.candidate);
            let plan = t
                .plan_for_candidate::<f64>(&shape, &perm, &opts, rc.candidate.clone(), 1.0)
                .unwrap();
            let measured = t
                .measure_candidate::<f64>(plan.problem(), &rc.candidate)
                .unwrap();
            let (out, report) = t.execute(&plan, &input).unwrap();
            assert_eq!(out.data(), expect.data(), "bytes: {case}");
            assert_eq!(measured.stats, report.stats, "stats: {case}");
            assert_eq!(
                measured.timing.time_ns.to_bits(),
                report.kernel_time_ns.to_bits(),
                "time: {case}"
            );
            schemas.insert(plan.schema().to_string());
        }
    }
    for s in [
        Schema::FviMatchLarge,
        Schema::FviMatchSmall,
        Schema::OrthogonalDistinct,
        Schema::OrthogonalArbitrary,
    ] {
        assert!(
            schemas.contains(&s.to_string()),
            "{s} not covered: {schemas:?}"
        );
    }
}
