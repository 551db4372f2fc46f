use super::dispatch::{resolve_site, Groups};
use super::*;
use crate::minicl::codegen::compile;
use crate::minicl::driver::{all_groups, register_template, run_ndrange, GroupEngine, Lowered, NdStats};
use crate::minicl::interp::{MemPool, RtArg, MAX_ITEM_OPS};
use crate::minicl::interp::Val;
use crate::minicl::parser::parse;
use crate::minicl::regir;

type EngineRun = Result<(NdStats, Vec<Vec<u8>>), Trap>;

fn triangle(
    src: &str,
    kernel: &str,
    args: &[RtArg],
    pool_init: (Vec<Vec<u8>>, Vec<bool>),
    global: [usize; 3],
    local: [usize; 3],
) {
    let _ = triangle_native(src, kernel, args, pool_init, global, local);
}

/// Run `kernel` from `src` on all three engines with identical pools,
/// assert identical outcomes pairwise and return the native engine's.
fn triangle_native(
    src: &str,
    kernel: &str,
    args: &[RtArg],
    pool_init: (Vec<Vec<u8>>, Vec<bool>),
    global: [usize; 3],
    local: [usize; 3],
) -> EngineRun {
    let ast = parse(src).expect("parse");
    let unit = compile(&ast).expect("compile");
    let info = unit.kernels.get(kernel).expect("kernel").clone();
    let reg = regir::compile_kernel(&unit, &info).expect("register compile");
    let nat = compile_native(&reg, &info).expect("native compile");

    let run = |prog: Lowered| -> EngineRun {
        let mut pool = MemPool {
            bufs: pool_init.0.clone(),
            read_only: pool_init.1.clone(),
        };
        let window = all_groups(global, local);
        run_ndrange(prog, &info, args, &mut pool, global, local, window)
            .map(|stats| (stats, pool.bufs))
    };
    let stack = run(Lowered::Stack(&unit));
    let register = run(Lowered::Register(&reg));
    let native = run(Lowered::Native(&nat));
    for (label, other) in [("register", &register), ("native", &native)] {
        match (&stack, other) {
            (Ok((s_stats, s_bufs)), Ok((o_stats, o_bufs))) => {
                assert_eq!(s_bufs, o_bufs, "{label}: buffer contents differ");
                assert_eq!(
                    s_stats.group_ops, o_stats.group_ops,
                    "{label}: group_ops differ"
                );
                assert_eq!(s_stats.items, o_stats.items, "{label}: item counts differ");
            }
            (Err(s), Err(o)) => {
                assert_eq!(s.message, o.message, "{label}: trap messages differ");
                assert_eq!(s.global_id, o.global_id, "{label}: trap global ids differ");
            }
            (s, o) => panic!("{label} disagrees on success: stack={s:?} other={o:?}"),
        }
    }
    native
}

fn f32_buf(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

#[test]
fn square_kernel_triangle() {
    triangle(
        r#"
        __kernel void square(__global float* in, __global float* out, const int n) {
            int i = get_global_id(0);
            if (i < n) { out[i] = in[i] * in[i]; }
        }
        "#,
        "square",
        &[
            RtArg::Buf { pool_slot: 0 },
            RtArg::Buf { pool_slot: 1 },
            RtArg::Scalar(Val::I(4)),
        ],
        (
            vec![f32_buf(&[1.0, 2.0, 3.0, 4.0]), vec![0u8; 16]],
            vec![false, false],
        ),
        [4, 1, 1],
        [2, 1, 1],
    );
}

#[test]
fn inner_product_loop_triangle() {
    triangle(
        r#"
        __kernel void dotk(__global float* a, __global float* b, __global float* out, const int n) {
            int i = get_global_id(0);
            float acc = 0.0f;
            for (int k = 0; k < n; k++) {
                acc = acc + a[i * n + k] * b[k * n + i];
            }
            out[i] = acc;
        }
        "#,
        "dotk",
        &[
            RtArg::Buf { pool_slot: 0 },
            RtArg::Buf { pool_slot: 1 },
            RtArg::Buf { pool_slot: 2 },
            RtArg::Scalar(Val::I(4)),
        ],
        (
            vec![
                f32_buf(&(0..16).map(|i| i as f32 * 0.25).collect::<Vec<_>>()),
                f32_buf(&(0..16).map(|i| (16 - i) as f32 * 0.5).collect::<Vec<_>>()),
                vec![0u8; 16],
            ],
            vec![false, false, false],
        ),
        [4, 1, 1],
        [2, 1, 1],
    );
}

#[test]
fn barrier_reduction_triangle() {
    let data: Vec<f32> = (0..16).map(|i| (16 - i) as f32).collect();
    triangle(
        r#"
        __kernel void rmin(__global float* in, __global float* out, __local float* s) {
            int l = get_local_id(0);
            s[l] = in[get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            for (int st = get_local_size(0) / 2; st > 0; st = st / 2) {
                if (l < st) { s[l] = fmin(s[l], s[l + st]); }
                barrier(CLK_LOCAL_MEM_FENCE);
            }
            if (l == 0) { out[get_group_id(0)] = s[0]; }
        }
        "#,
        "rmin",
        &[
            RtArg::Buf { pool_slot: 0 },
            RtArg::Buf { pool_slot: 1 },
            RtArg::Local { bytes: 32 },
        ],
        (vec![f32_buf(&data), vec![0u8; 8]], vec![false, false]),
        [16, 1, 1],
        [8, 1, 1],
    );
}

#[test]
fn nested_device_functions_triangle() {
    triangle(
        r#"
        float g(float x) { return x * 2.0f; }
        float f(float x) { return g(x) + 1.0f; }
        __kernel void k(__global float* a) {
            int i = get_global_id(0);
            a[i] = f(a[i]) + g(3.0f);
        }
        "#,
        "k",
        &[RtArg::Buf { pool_slot: 0 }],
        (vec![f32_buf(&[3.0, 5.0, -1.0, 0.5])], vec![false]),
        [4, 1, 1],
        [2, 1, 1],
    );
}

#[test]
fn call_in_loop_reinitialises_window_locals() {
    // The callee's window locals must behave as freshly zeroed on
    // every activation, not inherit the previous iteration's values.
    triangle(
        r#"
        float acc3(float x) {
            float t = 0.0f;
            for (int j = 0; j < 3; j++) { t = t + x; }
            return t;
        }
        __kernel void k(__global float* a) {
            int i = get_global_id(0);
            float s = 0.0f;
            for (int r = 0; r < 4; r++) { s = s + acc3(a[i] + (float)r); }
            a[i] = s;
        }
        "#,
        "k",
        &[RtArg::Buf { pool_slot: 0 }],
        (vec![f32_buf(&[1.0, -2.0, 0.25, 8.0])], vec![false]),
        [4, 1, 1],
        [2, 1, 1],
    );
}

#[test]
fn float4_and_private_memory_triangle() {
    triangle(
        r#"
        __kernel void v(__global float4* a, __global float* out) {
            float4 x = a[0];
            float4 y = (float4)(2.0f);
            float tmp[4];
            int i = get_global_id(0);
            tmp[i % 4] = dot(x, y);
            out[i] = tmp[i % 4] + x.y;
            a[1] = x * y;
        }
        "#,
        "v",
        &[RtArg::Buf { pool_slot: 0 }, RtArg::Buf { pool_slot: 1 }],
        (
            vec![f32_buf(&[1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]), vec![0u8; 16]],
            vec![false, false],
        ),
        [4, 1, 1],
        [2, 1, 1],
    );
}

#[test]
fn division_by_a_constant_power_of_two_rounds_toward_zero() {
    // Negative and positive dividends, odd and even, and the extremes.
    triangle(
        "__kernel void d(__global int* a, __global long* b) {
            int i = get_global_id(0);
            long x = (long)(i * 37 - 300) * 11;
            a[i] = (i * 37 - 300) / 2 + (i * 37 - 300) / 8 + (i - 8) / 1 + (i * 5 - 40) / 3;
            if (i == 0) { x = x * 1000000007 * 1000000007; }
            b[i] = x / 4 + x / 1024 + x / 1073741824;
        }",
        "d",
        &[RtArg::Buf { pool_slot: 0 }, RtArg::Buf { pool_slot: 1 }],
        (vec![vec![0u8; 4 * 16], vec![0u8; 8 * 16]], vec![false, false]),
        [16, 1, 1],
        [16, 1, 1],
    );
}

#[test]
fn oob_trap_triangle() {
    triangle(
        "__kernel void oob(__global float* a) { a[get_global_id(0) + 1000000] = 1.0f; }",
        "oob",
        &[RtArg::Buf { pool_slot: 0 }],
        (vec![vec![0u8; 64]], vec![false]),
        [4, 1, 1],
        [2, 1, 1],
    );
}

#[test]
fn div_zero_trap_triangle() {
    triangle(
        "__kernel void divz(__global int* a) { int z = (int)(get_global_id(0) * 0); a[0] = 1 / z; }",
        "divz",
        &[RtArg::Buf { pool_slot: 0 }],
        (vec![vec![0u8; 64]], vec![false]),
        [4, 1, 1],
        [2, 1, 1],
    );
}

#[test]
fn readonly_store_trap_triangle() {
    triangle(
        "__kernel void w(__global float* a) { a[get_global_id(0)] = 2.0f; }",
        "w",
        &[RtArg::Buf { pool_slot: 0 }],
        (vec![vec![0u8; 64]], vec![true]),
        [4, 1, 1],
        [2, 1, 1],
    );
}

#[test]
fn divergent_barrier_trap_triangle() {
    triangle(
        r#"
        __kernel void diverge(__global float* a) {
            if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
            a[get_global_id(0)] = 1.0f;
        }
        "#,
        "diverge",
        &[RtArg::Buf { pool_slot: 0 }],
        (vec![vec![0u8; 64]], vec![false]),
        [4, 1, 1],
        [2, 1, 1],
    );
}

// -- strip mode: each of these fails against a strip mode that lacks
//    the strip rule or the unzip -----------------------------------

fn i32_buf(n: usize) -> Vec<u8> {
    (0..n as i32)
        .flat_map(|v| (v * 3 + 1).to_le_bytes())
        .collect()
}

fn bufs(slots: &[usize]) -> Vec<RtArg> {
    slots.iter().map(|&s| RtArg::Buf { pool_slot: s }).collect()
}

/// The triangle must hold, the dispatch must succeed, and the native
/// engine must have decided for (`None`) or against strips as stated.
fn strip_case(
    src: &str,
    args: &[RtArg],
    pool: Vec<Vec<u8>>,
    local: [usize; 3],
    groups: [usize; 3],
    scalar_why: Option<StripReject>,
) -> StripStats {
    let ro = vec![false; pool.len()];
    let global = std::array::from_fn(|d| local[d] * groups[d]);
    let (stats, _) = triangle_native(src, "k", args, (pool, ro), global, local)
        .expect("the kernel does not trap");
    assert_eq!(stats.strip.scalar_why, scalar_why);
    // Every item starts in a strip, except a dim-0 remainder of one.
    let lanes = STRIP.min(local[0]);
    let alone = (scalar_why.is_none() && lanes > 1 && local[0] % lanes == 1) as u64;
    let rows = stats.items / local[0] as u64;
    let expected = if scalar_why.is_some() || lanes == 1 {
        0
    } else {
        stats.items - rows * alone
    };
    assert_eq!(stats.strip.items, expected);
    stats.strip
}

/// A store and a load of slot 0 that two lanes of a strip may make to
/// one element.
const STORE_LOAD: Option<StripReject> = Some(StripReject::Race {
    local: false,
    slot: 0,
    store: false,
});

#[test]
fn in_place_shift_stays_scalar() {
    // Item i+1 must read what item i wrote: lanes may not interleave.
    strip_case(
        "__kernel void k(__global int* a) { int i = get_global_id(0); a[i + 1] = a[i] + 1; }",
        &bufs(&[0]),
        vec![i32_buf(40)],
        [16, 1, 1],
        [2, 1, 1],
        STORE_LOAD,
    );
}

#[test]
fn two_store_sites_into_one_buffer_stay_scalar() {
    // Item i's second store and item i+1's first hit the same element.
    strip_case(
        "__kernel void k(__global int* a) {
            int i = get_global_id(0);
            a[i + 1] = i;
            a[i] = 100 + i;
        }",
        &bufs(&[0]),
        vec![i32_buf(40)],
        [16, 1, 1],
        [2, 1, 1],
        Some(StripReject::Race {
            local: false,
            slot: 0,
            store: true,
        }),
    );
}

#[test]
fn global_store_in_a_loop_stays_scalar() {
    // Each item runs the store several times, at addresses its
    // neighbours also write: the loop moves the index.
    strip_case(
        "__kernel void k(__global int* a) {
            int i = get_global_id(0);
            for (int j = 0; j < 3; j++) { a[i + j] = i * 10 + j; }
        }",
        &bufs(&[0]),
        vec![i32_buf(40)],
        [16, 1, 1],
        [2, 1, 1],
        Some(StripReject::Race {
            local: false,
            slot: 0,
            store: true,
        }),
    );
}

#[test]
fn in_place_updates_of_the_items_own_elements_strip() {
    // Loads and stores of one buffer, a store in a loop, two store
    // sites: every element still has one item.
    strip_case(
        "__kernel void k(__global int* a) {
            int i = get_global_id(0);
            for (int j = 0; j < 3; j++) { a[i] = a[i] * 3 + j; }
            if (a[i] > 50) { a[i] = 0; }
        }",
        &bufs(&[0]),
        vec![i32_buf(40)],
        [16, 1, 1],
        [2, 1, 1],
        None,
    );
}

#[test]
fn a_store_pinned_to_one_lane_strips_and_a_shared_one_does_not() {
    let kernel = |guard: &str| {
        format!(
            "__kernel void k(__global int* a, __global int* out) {{
                int i = get_global_id(0);
                int v = a[i] * 2;
                if ({guard}) {{ out[get_group_id(0)] = v; }}
            }}"
        )
    };
    let run = |src: &str, why| {
        strip_case(src, &bufs(&[0, 1]), vec![i32_buf(40), vec![0u8; 8]], [16, 1, 1], [2, 1, 1], why)
    };
    run(&kernel("get_local_id(0) == 3"), None);
    let shared = Some(StripReject::Race {
        local: false,
        slot: 1,
        store: true,
    });
    run(&kernel("get_local_id(0) < 3"), shared);
}

#[test]
fn a_barrier_free_kernel_with_local_memory_strips() {
    strip_case(
        "__kernel void k(__global int* a, __global int* out) {
            __local int t[64];
            int l = get_local_id(0);
            t[l] = a[get_global_id(0)] + 1;
            out[get_global_id(0)] = t[l] * t[l];
        }",
        &bufs(&[0, 1]),
        vec![i32_buf(40), vec![0u8; 4 * 40]],
        [16, 1, 1],
        [2, 1, 1],
        None,
    );
}

#[test]
fn a_barrier_kernel_with_no_race_free_region_names_its_first_pair() {
    strip_case(
        "__kernel void k(__global int* a, __global int* out) {
            __local int t[64];
            int l = get_local_id(0);
            t[l] = a[get_global_id(0)];
            t[l + 1] = 7;
            barrier(CLK_LOCAL_MEM_FENCE);
            out[0] = t[l];
        }",
        &bufs(&[0, 1]),
        vec![i32_buf(40), vec![0u8; 8]],
        [16, 1, 1],
        [2, 1, 1],
        Some(StripReject::Race {
            local: true,
            slot: 0,
            store: true,
        }),
    );
}

#[test]
fn aliased_arguments_are_rejected_per_dispatch() {
    let src = "__kernel void k(__global int* a, __global int* b) {
        int i = get_global_id(0);
        b[i + 1] = a[i] + 1;
    }";
    // With distinct buffers it strips ...
    strip_case(
        src,
        &bufs(&[0, 1]),
        vec![i32_buf(40), i32_buf(40)],
        [16, 1, 1],
        [2, 1, 1],
        None,
    );
    // ... but bound to one buffer it is the in-place shift again.
    strip_case(
        src,
        &bufs(&[0, 0]),
        vec![i32_buf(40)],
        [16, 1, 1],
        [2, 1, 1],
        STORE_LOAD,
    );
}

/// LUD `Sub` by hand: in place, reads row and column `step`, writes
/// strictly below and right of them; `n` is the row width.
const IN_PLACE: &str = "__kernel void k(__global int* m, const int n, const int step) {
        int j = get_global_id(0) + step + 1;
        int i = get_global_id(1) + step + 1;
        if (i < n && j < n) { m[i * n + j] = m[i * n + j] - m[i * n + step] * m[step * n + j]; }
    }";

fn in_place_case(lx: usize, n: usize, why: Option<StripReject>) -> StripStats {
    let mut args = bufs(&[0]);
    args.extend([n as i64, 1].map(|v| RtArg::Scalar(Val::I(v))));
    let rows = 2 * 2 * lx.max(n);
    strip_case(IN_PLACE, &args, vec![i32_buf(rows * rows)], [lx, 2, 1], [2, 2, 1], why)
}

#[test]
fn the_in_place_lud_update_strips_where_rows_are_a_strip_apart() {
    for lx in [1, 5, 16, 17, 33] {
        // Two groups of `lx` along dim 0 against `n - 2` columns to update.
        let strip = in_place_case(lx, 2 * lx, None);
        // The bounds guard turns the last items of each row away.
        assert_eq!(strip.unzips > 0, lx > 1);
    }
    // Rows narrower than a strip: row i+1's `m[step*n + j]` is a lane
    // of row i's strip away, and the dispatch runs one lane wide.
    in_place_case(16, 8, STORE_LOAD);
    in_place_case(16, 15, STORE_LOAD);
    in_place_case(16, 16, None);
    in_place_case(5, 5, None);
}

#[test]
fn differing_trip_counts_unzip_and_agreeing_ones_do_not() {
    let kernel = |bound: &str| {
        format!(
            "__kernel void k(__global int* a, __global int* out) {{
                int i = get_global_id(1) * get_global_size(0) + get_global_id(0);
                int acc = 0;
                for (int j = 0; j < {bound}; j++) {{ acc = acc * 3 + a[(i + j) % 64]; }}
                out[i] = acc;
            }}"
        )
    };
    let run = |src: &str| {
        strip_case(
            src,
            &bufs(&[0, 1]),
            vec![i32_buf(64), vec![0u8; 4 * 66]],
            [33, 2, 1],
            [1, 1, 1],
            None,
        )
    };
    assert!(run(&kernel("(i * 7) % 5")).unzips > 0);
    assert_eq!(run(&kernel("5")).unzips, 0);
}

#[test]
fn strips_follow_dim0_for_every_local_size() {
    // Full strips, short strips, remainders of one, several rows; the
    // divergent branch makes some of them unzip on the way.
    for lx in [1, 5, 16, 17, 33] {
        let n = lx * 3 * 2 * 2;
        strip_case(
            "__kernel void k(__global int* a, __global int* out) {
                int i = get_global_id(1) * get_global_size(0) + get_global_id(0);
                int v = a[i] + get_local_id(0) * 1000 + get_local_id(1) * 100 + get_group_id(0);
                if (i % 3 == 1) { v = v * 2; }
                out[i] = v;
            }",
            &bufs(&[0, 1]),
            vec![i32_buf(n), vec![0u8; 4 * n]],
            [lx, 3, 1],
            [2, 2, 1],
            None,
        );
    }
}

#[test]
fn private_array_kernel_strips() {
    // Docrank's shape: private arrays bound through a local pointer
    // (sited only thanks to pointer copy propagation), stored in loops.
    let strip = strip_case(
        "__kernel void k(__global float* docs, __global int* flags) {
            int d = get_global_id(0);
            float tf[8];
            for (int t = 0; t < 8; t++) { tf[t] = docs[d * 8 + t]; }
            float s = 0.0f;
            for (int t = 0; t < 8; t++) { s = s + tf[t] * tf[7 - t]; }
            int wanted = 0;
            if (s > 150.0f) { wanted = 1; }
            flags[d] = wanted;
        }",
        &bufs(&[0, 1]),
        vec![
            f32_buf(&(0..256).map(|i| (i % 11) as f32).collect::<Vec<_>>()),
            vec![0u8; 4 * 32],
        ],
        [16, 1, 1],
        [2, 1, 1],
        None,
    );
    assert!(strip.unzips > 0, "the threshold test splits some strip");
}

#[test]
fn float4_kernel_strips() {
    strip_case(
        "__kernel void k(__global float4* a, __global float* out) {
            int i = get_global_id(0);
            float4 x = a[i];
            float4 y = (float4)(2.0f) * x + (float4)(x.w, x.z, x.y, x.x);
            y.z = y.z / 3.0f;
            out[i] = dot(x, y) + y.z;
        }",
        &bufs(&[0, 1]),
        vec![
            f32_buf(&(0..128).map(|i| i as f32 * 0.5 - 7.0).collect::<Vec<_>>()),
            vec![0u8; 4 * 32],
        ],
        [16, 1, 1],
        [2, 1, 1],
        None,
    );
}

/// Compile `src`'s kernel `k`, check that the strip rule admits it at
/// 16-item groups, and run the (trapping) triangle.
fn strip_trap_case(src: &str, pool: Vec<Vec<u8>>) -> Trap {
    let unit = compile(&parse(src).expect("parse")).expect("compile");
    let info = unit.kernels.get("k").expect("kernel").clone();
    let reg = regir::compile_kernel(&unit, &info).expect("register compile");
    let nat = compile_native(&reg, &info).expect("native compile");
    let args = bufs(&(0..pool.len()).collect::<Vec<_>>());
    let template = register_template(&info, &args, nat.main_const_base, &nat.template_static);
    let ro = vec![false; pool.len()];
    let sites: Vec<Site> = nat
        .site_ptrs
        .iter()
        .map(|&p| resolve_site(template[p as usize].ptr(), pool.len(), &ro, 0))
        .collect();
    let geo = Geometry {
        group_id: [0; 3],
        global_size: [32, 1, 1],
        local_size: [16, 1, 1],
        num_groups: [2, 1, 1],
    };
    let verdict = nat.regions[0].1.race_free(&nat.forms, &sites, &template, &geo, STRIP);
    assert_eq!(verdict, Ok(()), "the trap must happen in strip mode");
    triangle_native(src, "k", &args, (pool, ro), [32, 1, 1], [16, 1, 1])
        .expect_err("the kernel traps")
}

#[test]
fn the_first_trap_in_item_order_wins_over_the_first_in_time() {
    // Lane 5 traps on its first instructions; lane 2 traps much later.
    // The sequential sweep never reaches item 5.
    let trap = strip_trap_case(
        "__kernel void k(__global int* a, __global int* out) {
            int i = get_global_id(0);
            int v = a[i];
            if (i == 5) { v = a[i + 1000000]; }
            for (int j = 0; j < 20; j++) { v = v * 3 + j; }
            int z = i - 2;
            out[i] = v / z;
        }",
        vec![i32_buf(32), vec![0u8; 4 * 32]],
    );
    assert_eq!(trap.global_id, [2, 0, 0]);
    assert_eq!(trap.message, "integer division by zero");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "2e9 interpreted ops per engine: release only"
)]
fn op_budget_trap_inside_a_strip() {
    // Lanes 0 and 1 spin together as a strip of two after lane 2
    // leaves the loop; lane 0 exhausts the budget first.
    let trap = strip_trap_case(
        "__kernel void k(__global float* a, __global float* out) {
            int i = get_global_id(0);
            float v = a[i];
            while (i < 2) { v = v / 1.5f / 1.5f / 1.5f / 1.5f / 1.5f / 1.5f / 1.5f / 1.5f; }
            out[i] = v;
        }",
        vec![f32_buf(&[1.0; 32]), vec![0u8; 4 * 32]],
    );
    assert_eq!(trap.global_id, [0, 0, 0]);
    assert!(trap.message.contains("op budget"));
}

/// Run one group of `src`'s barrier-free kernel `k` on the native
/// engine's group path: its outcome, and the ops its lanes retired.
fn retired_ops(src: &str, pool: Vec<Vec<u8>>, local: usize) -> (Result<u64, Trap>, u64) {
    let unit = compile(&parse(src).expect("parse")).expect("compile");
    let info = unit.kernels.get("k").expect("kernel").clone();
    let reg = regir::compile_kernel(&unit, &info).expect("register compile");
    let prog = compile_native(&reg, &info).expect("native compile");
    let args = bufs(&(0..pool.len()).collect::<Vec<_>>());
    let template = register_template(&info, &args, prog.main_const_base, &prog.template_static);
    let mut bufs = pool;
    let read_only = vec![false; bufs.len()];
    let sites: Vec<Site> = prog
        .site_ptrs
        .iter()
        .map(|&p| resolve_site(template[p as usize].ptr(), bufs.len(), &read_only, 0))
        .collect();
    let geo = Geometry {
        group_id: [0; 3],
        global_size: [local, 1, 1],
        local_size: [local, 1, 1],
        num_groups: [1; 3],
    };
    let mut tally = StripStats::default();
    let mut groups = Groups {
        prog: &prog,
        template: &template,
        priv_bytes: info.priv_bytes,
        cx: NCtx {
            bufs: &mut bufs,
            read_only: &read_only,
            local_regions: vec![],
            sites: &sites,
            geo,
            unzip: Unzip::default(),
        },
        width: local.min(STRIP),
        wide: vec![],
        tally: &mut tally,
    };
    let mut lanes: Vec<NItem> = (0..local.min(STRIP)).map(|_| groups.arena()).collect();
    let outcome = groups.run_free_group(&mut lanes);
    (outcome, lanes.iter().map(|st| st.ops).sum())
}

/// Every lane spins: `STRIP` lanes share one loop, and the first one
/// leaves the strip once it has spent its share of the budget, so the
/// trap comes after about twice the scalar path's ops, not `STRIP`
/// times (2e9 ops of interpreted work: release only).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "4e9 interpreted ops: release only"
)]
fn a_runaway_loop_in_a_strip_traps_after_about_the_scalar_budget() {
    let src = "__kernel void k(__global float* a, __global float* out) {
        int i = get_global_id(0);
        float v = a[i];
        while (i >= 0) { v = v / 1.5f / 1.5f / 1.5f / 1.5f; }
        out[i] = v;
    }";
    let (outcome, ops) = retired_ops(src, vec![f32_buf(&[1.0; 16]), vec![0u8; 4 * 16]], 16);
    let trap = outcome.expect_err("the loop never ends");
    assert_eq!(trap.global_id, [0, 0, 0]);
    assert_eq!(trap.message, "work-item exceeded the op budget (infinite loop?)");
    // Lane 0 alone would retire just over the budget; sixteen lanes in
    // lockstep retired sixteen times that before the fix.
    assert!(ops <= 2 * MAX_ITEM_OPS, "{ops} ops retired before the trap");
    assert!(ops > MAX_ITEM_OPS, "{ops}");
}

/// Two lanes run a loop that ends just under the budget: both leave
/// the strip on the way and still finish.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "4e9 interpreted ops: release only"
)]
fn a_loop_just_under_the_budget_completes_in_a_strip() {
    let src = |n: i64| {
        format!(
            "__kernel void k(__global int* a, __global int* out) {{
                int i = get_global_id(0);
                int v = a[i];
                for (int j = 0; j < {n}; j++) {{ v = v * 3 + j; }}
                out[i] = v;
            }}"
        )
    };
    // Ops per item at two trip counts give the cost of one iteration.
    let per_item = |n: i64| {
        let (outcome, _) = retired_ops(&src(n), vec![i32_buf(2), vec![0u8; 8]], 2);
        outcome.expect("runs") / 2
    };
    let (base, step) = (per_item(0), per_item(1000) - per_item(0));
    let n = (MAX_ITEM_OPS - base - 2 * step) / step * 1000;
    let (outcome, _) = retired_ops(&src(n as i64), vec![i32_buf(2), vec![0u8; 8]], 2);
    let ops = outcome.expect("just under the budget: no trap");
    assert!(ops > 2 * (MAX_ITEM_OPS - 3 * step), "{ops}");
}

#[cfg(test)]
mod microbench {
    use super::*;
    use crate::minicl::codegen::compile;
    use crate::minicl::driver::{all_groups, run_ndrange, Lowered};
    use crate::minicl::interp::Val;
    use crate::minicl::parser::parse;
    use crate::minicl::regir;

    #[test]
    #[ignore]
    fn kernel_micro() {
        let src = r#"
            __kernel void mm(__global float* a, __global float* b, __global float* c, const int n) {
                int i = get_global_id(1); int j = get_global_id(0);
                float acc = 0.0f;
                for (int k = 0; k < n; k++) { acc = acc + a[i*n+k]*b[k*n+j]; }
                c[i*n+j] = acc;
            }
        "#;
        let n = 128usize;
        let ast = parse(src).unwrap();
        let unit = compile(&ast).unwrap();
        let info = unit.kernels.get("mm").unwrap().clone();
        let reg = regir::compile_kernel(&unit, &info).unwrap();
        let nat = compile_native(&reg, &info).unwrap();
        let args = [
            RtArg::Buf { pool_slot: 0 },
            RtArg::Buf { pool_slot: 1 },
            RtArg::Buf { pool_slot: 2 },
            RtArg::Scalar(Val::I(n as i64)),
        ];
        let mk = || MemPool {
            bufs: vec![vec![1u8; n * n * 4], vec![2u8; n * n * 4], vec![0u8; n * n * 4]],
            read_only: vec![false, false, false],
        };
        let global = [n, n, 1];
        let local = [16, 16, 1];
        let mut best_r = u128::MAX;
        let mut best_n = u128::MAX;
        for _ in 0..15 {
            let mut pool = mk();
            let t = std::time::Instant::now();
            let window = all_groups(global, local);
            run_ndrange(Lowered::Register(&reg), &info, &args, &mut pool, global, local, window)
                .unwrap();
            best_r = best_r.min(t.elapsed().as_micros());
            let mut pool = mk();
            let t = std::time::Instant::now();
            let window = all_groups(global, local);
            run_ndrange(Lowered::Native(&nat), &info, &args, &mut pool, global, local, window)
                .unwrap();
            best_n = best_n.min(t.elapsed().as_micros());
        }
        eprintln!("register {best_r}us native {best_n}us speedup {:.2}x", best_r as f64 / best_n as f64);
    }

    #[test]
    #[ignore]
    fn barrier_micro() {
        let src = r#"
            __kernel void red(__global float* in, __global float* out, __local float* s, const int n) {
                int gid = get_global_id(0);
                int l = get_local_id(0);
                if (gid < n) { s[l] = in[gid]; } else { s[l] = 3.0e38f; }
                barrier(CLK_LOCAL_MEM_FENCE);
                for (int st = get_local_size(0) / 2; st > 0; st = st / 2) {
                    if (l < st) { if (s[l + st] < s[l]) { s[l] = s[l + st]; } }
                    barrier(CLK_LOCAL_MEM_FENCE);
                }
                if (l == 0) { out[get_group_id(0)] = s[0]; }
            }
        "#;
        let n = 1usize << 20;
        let group = 256usize;
        let ast = parse(src).unwrap();
        let unit = compile(&ast).unwrap();
        let info = unit.kernels.get("red").unwrap().clone();
        let reg = regir::compile_kernel(&unit, &info).unwrap();
        let nat = compile_native(&reg, &info).unwrap();
        let args = [
            RtArg::Buf { pool_slot: 0 },
            RtArg::Buf { pool_slot: 1 },
            RtArg::Local { bytes: group * 4 },
            RtArg::Scalar(Val::I(n as i64)),
        ];
        let mk = || MemPool {
            bufs: vec![vec![1u8; n * 4], vec![0u8; (n / group) * 4]],
            read_only: vec![false, false],
        };
        let global = [n, 1, 1];
        let local = [group, 1, 1];
        let mut best_r = u128::MAX;
        let mut best_n = u128::MAX;
        for _ in 0..15 {
            let mut pool = mk();
            let t = std::time::Instant::now();
            let window = all_groups(global, local);
            run_ndrange(Lowered::Register(&reg), &info, &args, &mut pool, global, local, window)
                .unwrap();
            best_r = best_r.min(t.elapsed().as_micros());
            let mut pool = mk();
            let t = std::time::Instant::now();
            let window = all_groups(global, local);
            run_ndrange(Lowered::Native(&nat), &info, &args, &mut pool, global, local, window)
                .unwrap();
            best_n = best_n.min(t.elapsed().as_micros());
        }
        eprintln!("register {best_r}us native {best_n}us speedup {:.2}x", best_r as f64 / best_n as f64);
    }
}
