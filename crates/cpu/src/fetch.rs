//! SMT fetch-thread selection policies (§5.3 of the paper).
//!
//! Every cycle the fetch engine picks up to two threads (out of the
//! runnable ones) to fetch four instructions each. The policy determines
//! the pick order; the paper shows the choice matters most at high
//! thread counts (figure 6) and differently under the decoupled
//! hierarchy (figure 8).

use crate::config::FetchPolicy;

/// Per-thread inputs to the fetch decision.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadFetchInfo {
    /// The thread can fetch this cycle (not exhausted, not stalled on an
    /// I-miss or unresolved misprediction, buffer space available).
    pub runnable: bool,
    /// Instructions fetched/decoded but not yet issued (ICOUNT metric).
    pub icount: usize,
    /// Like `icount` but weighting MOM instructions by their stream
    /// length (OCOUNT metric, using the stream-length register).
    pub ocount: u64,
    /// Whether the thread's previous fetch group contained vector
    /// (μ-SIMD) instructions (BALANCE metric).
    pub fetched_vector_last: bool,
}

/// Select up to `n_select` thread indices to fetch from, in priority
/// order, into `picked` (a caller-provided buffer, so the per-cycle
/// fetch stage allocates nothing in steady state). `rr_cursor` rotates
/// round-robin fairness; `vector_pipe_empty` feeds the BALANCE policy.
pub fn select_threads_into(
    policy: FetchPolicy,
    infos: &[ThreadFetchInfo],
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
            // Stable sort keeps round-robin order among ties. Thread
            // counts are ≤ 8, so sorting is allocation-free in practice
            // (the stdlib stable sort only heap-allocates above a
            // small-run threshold).
            picked.sort_by_key(|&t| infos[t].icount);
        }
        FetchPolicy::OCount => {
            picked.sort_by_key(|&t| infos[t].ocount);
        }
        FetchPolicy::Balance => {
            // Vector pipe empty → prefer threads that fetched vector code
            // last time (feed the starved pipe); otherwise prefer threads
            // that did not (keep scalar flowing).
            picked.sort_by_key(|&t| {
                let pref = infos[t].fetched_vector_last == vector_pipe_empty;
                usize::from(!pref)
            });
        }
    }
    picked.truncate(n_select);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`select_threads_into`] into a fresh vector.
    fn select_threads(
        policy: FetchPolicy,
        infos: &[ThreadFetchInfo],
        rr_cursor: usize,
        n_select: usize,
        vector_pipe_empty: bool,
    ) -> Vec<usize> {
        let mut picked = Vec::new();
        select_threads_into(
            policy,
            infos,
            rr_cursor,
            n_select,
            vector_pipe_empty,
            &mut picked,
        );
        picked
    }

    fn runnable(n: usize) -> Vec<ThreadFetchInfo> {
        vec![
            ThreadFetchInfo {
                runnable: true,
                ..Default::default()
            };
            n
        ]
    }

    #[test]
    fn round_robin_rotates() {
        let infos = runnable(4);
        assert_eq!(
            select_threads(FetchPolicy::RoundRobin, &infos, 0, 2, false),
            vec![0, 1]
        );
        assert_eq!(
            select_threads(FetchPolicy::RoundRobin, &infos, 2, 2, false),
            vec![2, 3]
        );
        assert_eq!(
            select_threads(FetchPolicy::RoundRobin, &infos, 3, 2, false),
            vec![3, 0]
        );
    }

    #[test]
    fn non_runnable_threads_skipped() {
        let mut infos = runnable(4);
        infos[1].runnable = false;
        assert_eq!(
            select_threads(FetchPolicy::RoundRobin, &infos, 0, 2, false),
            vec![0, 2]
        );
        infos[0].runnable = false;
        infos[2].runnable = false;
        assert_eq!(
            select_threads(FetchPolicy::RoundRobin, &infos, 0, 2, false),
            vec![3]
        );
    }

    #[test]
    fn icount_prefers_emptier_threads() {
        let mut infos = runnable(4);
        infos[0].icount = 30;
        infos[1].icount = 5;
        infos[2].icount = 12;
        infos[3].icount = 5;
        // ties (1 and 3) keep round-robin order from cursor 0
        assert_eq!(
            select_threads(FetchPolicy::ICount, &infos, 0, 2, false),
            vec![1, 3]
        );
        // from cursor 3, thread 3 precedes thread 1 among ties
        assert_eq!(
            select_threads(FetchPolicy::ICount, &infos, 3, 2, false),
            vec![3, 1]
        );
    }

    #[test]
    fn ocount_weighs_stream_lengths() {
        let mut infos = runnable(2);
        infos[0].icount = 4; // four scalar ops
        infos[0].ocount = 4;
        infos[1].icount = 2; // two full streams: ICOUNT would prefer this
        infos[1].ocount = 32;
        assert_eq!(
            select_threads(FetchPolicy::ICount, &infos, 0, 1, false),
            vec![1]
        );
        assert_eq!(
            select_threads(FetchPolicy::OCount, &infos, 0, 1, false),
            vec![0]
        );
    }

    #[test]
    fn balance_feeds_the_starved_pipe() {
        let mut infos = runnable(3);
        infos[0].fetched_vector_last = true;
        infos[1].fetched_vector_last = false;
        infos[2].fetched_vector_last = true;
        // Vector pipe empty: vector-fetching threads first.
        assert_eq!(
            select_threads(FetchPolicy::Balance, &infos, 0, 2, true),
            vec![0, 2]
        );
        // Vector pipe busy: scalar threads first.
        assert_eq!(
            select_threads(FetchPolicy::Balance, &infos, 0, 2, false)[0],
            1
        );
    }

    #[test]
    fn selection_bounded_by_n_select() {
        let infos = runnable(8);
        assert_eq!(
            select_threads(FetchPolicy::RoundRobin, &infos, 0, 2, false).len(),
            2
        );
        assert_eq!(
            select_threads(FetchPolicy::RoundRobin, &infos, 0, 8, false).len(),
            8
        );
    }
}
