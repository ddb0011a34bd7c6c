//! Property test: the bitmask fetch selection must pick exactly what
//! the sort-based selection it replaced picks, for every policy.
//!
//! The oracle is that selection, kept here verbatim as a test-only
//! model: collect the runnable threads in round-robin order from the
//! cursor, stable-sort them by the policy's key and keep the first
//! `n_select`. Random runnable sets, keys, cursors and `n_select` at 1,
//! 2, 4 and 8 threads must give identical picks in identical order.
//! The golden statistics corpus pins only round-robin fetch, so this is
//! what holds ICOUNT, OCOUNT and BALANCE to the old behaviour.

use medsim_cpu::fetch::{select_threads, ThreadFetchInfo};
use medsim_cpu::FetchPolicy;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-thread inputs of the oracle.
#[derive(Debug, Clone, Copy, Default)]
struct OracleInfo {
    runnable: bool,
    icount: usize,
    ocount: u64,
    fetched_vector_last: bool,
}

/// The sort-based selection: runnable threads in round-robin order from
/// the cursor, stably sorted by the policy's key, first `n_select`.
fn select_threads_into(
    policy: FetchPolicy,
    infos: &[OracleInfo],
    rr_cursor: usize,
    n_select: usize,
    vector_pipe_empty: bool,
    picked: &mut Vec<usize>,
) {
    let n = infos.len();
    // Runnable threads in round-robin order starting at the cursor.
    let start = rr_cursor.checked_rem(n).unwrap_or(0);
    picked.clear();
    // Round-robin keeps the first `n_select` in this order, so it can
    // stop collecting there; the other policies sort all of them.
    let wanted = match policy {
        FetchPolicy::RoundRobin => n_select,
        _ => n,
    };
    for (t, info) in infos.iter().enumerate().skip(start) {
        if picked.len() == wanted {
            break;
        }
        if info.runnable {
            picked.push(t);
        }
    }
    for (t, info) in infos[..start].iter().enumerate() {
        if picked.len() == wanted {
            break;
        }
        if info.runnable {
            picked.push(t);
        }
    }
    match policy {
        FetchPolicy::RoundRobin => {}
        FetchPolicy::ICount => {
            picked.sort_by_key(|&t| infos[t].icount);
        }
        FetchPolicy::OCount => {
            picked.sort_by_key(|&t| infos[t].ocount);
        }
        FetchPolicy::Balance => {
            picked.sort_by_key(|&t| {
                let pref = infos[t].fetched_vector_last == vector_pipe_empty;
                usize::from(!pref)
            });
        }
    }
    picked.truncate(n_select);
}

/// The selection under test on the same inputs.
fn select_new(
    policy: FetchPolicy,
    infos: &[OracleInfo],
    rr_cursor: usize,
    n_select: usize,
    vector_pipe_empty: bool,
) -> Vec<usize> {
    let runnable = infos
        .iter()
        .enumerate()
        .fold(0u64, |m, (t, i)| m | (u64::from(i.runnable) << t));
    let mut picked = vec![0u8; n_select];
    let len = select_threads(
        policy,
        runnable,
        infos.len(),
        rr_cursor,
        vector_pipe_empty,
        |t| ThreadFetchInfo {
            icount: infos[t].icount,
            ocount: infos[t].ocount,
            fetched_vector_last: infos[t].fetched_vector_last,
        },
        &mut picked,
    );
    picked[..len].iter().map(|&t| usize::from(t)).collect()
}

/// Random per-thread inputs; keys come from a narrow range so ties are
/// common (the tie-break is what round-robin order decides).
fn random_infos(rng: &mut SmallRng, threads: usize) -> Vec<OracleInfo> {
    let key_range = if rng.gen_bool(0.5) { 3 } else { 40 };
    (0..threads)
        .map(|_| OracleInfo {
            runnable: rng.gen_bool(0.7),
            icount: rng.gen_range(0..key_range),
            ocount: rng.gen_range(0..key_range as u64 * 4),
            fetched_vector_last: rng.gen_bool(0.5),
        })
        .collect()
}

#[test]
fn every_policy_matches_the_sort_based_oracle() {
    let mut rng = SmallRng::seed_from_u64(17);
    let mut want = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        for _ in 0..2_000 {
            let infos = random_infos(&mut rng, threads);
            let cursor = rng.gen_range(0..threads);
            let n_select = rng.gen_range(0..threads + 1);
            let vector_pipe_empty = rng.gen_bool(0.5);
            for policy in FetchPolicy::ALL {
                select_threads_into(
                    policy,
                    &infos,
                    cursor,
                    n_select,
                    vector_pipe_empty,
                    &mut want,
                );
                let got = select_new(policy, &infos, cursor, n_select, vector_pipe_empty);
                assert_eq!(
                    got, want,
                    "{policy:?}, {threads} threads, cursor {cursor}, \
                     n_select {n_select}, vector pipe empty {vector_pipe_empty}: {infos:?}"
                );
            }
        }
    }
}

#[test]
fn all_runnable_with_equal_keys_is_round_robin_for_every_policy() {
    let mut want = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let infos = vec![
            OracleInfo {
                runnable: true,
                ..OracleInfo::default()
            };
            threads
        ];
        for cursor in 0..threads {
            for n_select in 0..=threads {
                for policy in FetchPolicy::ALL {
                    select_threads_into(policy, &infos, cursor, n_select, false, &mut want);
                    let expected: Vec<usize> =
                        (0..n_select).map(|i| (cursor + i) % threads).collect();
                    assert_eq!(want, expected, "oracle {policy:?}");
                    assert_eq!(
                        select_new(policy, &infos, cursor, n_select, false),
                        expected,
                        "{policy:?}, {threads} threads, cursor {cursor}, n_select {n_select}"
                    );
                }
            }
        }
    }
}
