//! SMT fetch-thread selection policies (§5.3 of the paper).
//!
//! Every cycle the fetch engine picks up to two threads (out of the
//! runnable ones) to fetch four instructions each. The policy determines
//! the pick order; the paper shows the choice matters most at high
//! thread counts (figure 6) and differently under the decoupled
//! hierarchy (figure 8).
//!
//! All four policies are one selection: the runnable threads, visited
//! in round-robin order from the cursor, ranked by a per-policy key
//! (smaller fetches first, ties keep round-robin order). Round-robin's
//! key is constant, so its selection is the first runnable threads
//! after the cursor.

use crate::config::FetchPolicy;

/// Most hardware contexts a core may have: runnable, ROB-head and
/// branch-resolution sets are `u64` bitmasks over thread ids.
pub(crate) const MAX_THREADS: usize = 64;

/// Per-thread inputs to the fetch keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadFetchInfo {
    /// Instructions fetched/decoded but not yet issued (ICOUNT key).
    pub icount: usize,
    /// Like `icount` but weighting MOM instructions by their stream
    /// length (OCOUNT key, using the stream-length register).
    pub ocount: u64,
    /// Whether the thread's previous fetch group contained vector
    /// (μ-SIMD) instructions (BALANCE key).
    pub fetched_vector_last: bool,
}

/// Bits `0..n` set.
#[inline]
#[must_use]
pub(crate) fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1 << n) - 1
    }
}

/// `mask` over thread ids `0..n` rotated so that bit `b` stands for
/// thread `(by + b) mod n`: its set bits, lowest first, visit the
/// threads in round-robin order from `by` (which must be below `n`).
#[inline]
#[must_use]
pub(crate) fn rotate_threads(mask: u64, by: usize, n: usize) -> u64 {
    debug_assert!(by < n.max(1) && n <= MAX_THREADS);
    if by == 0 {
        mask
    } else {
        ((mask >> by) | (mask << (n - by))) & low_bits(n)
    }
}

/// The up-to-`picked.len()` threads of `runnable` (a bitmask over
/// thread ids `0..threads`) with the smallest `key`, smallest first,
/// ties in round-robin order from `rr_cursor` (below `threads`): the first
/// `picked.len()` of a stable sort by key of the runnable threads in
/// round-robin order. Writes them to the front of `picked` and returns
/// how many there are.
///
/// The scan stops as soon as every pick has key 0, since no later
/// thread can displace one, so a constant-0 key costs no more than the
/// first `picked.len()` set bits of the rotated mask.
#[inline]
fn select_by_key(
    runnable: u64,
    threads: usize,
    rr_cursor: usize,
    key: impl Fn(usize) -> u64,
    picked: &mut [u8],
) -> usize {
    let want = picked.len();
    if want == 0 {
        return 0;
    }
    let mut order = rotate_threads(runnable, rr_cursor, threads);
    let mut len = 0;
    while order != 0 {
        let mut tid = rr_cursor + order.trailing_zeros() as usize;
        order &= order - 1;
        if tid >= threads {
            tid -= threads;
        }
        let k = key(tid);
        if len == want {
            // Full: the thread enters only by beating the last pick.
            if key(usize::from(picked[len - 1])) <= k {
                continue;
            }
            len -= 1;
        }
        // Insert after every pick with a key at most `k` (stable).
        let mut at = len;
        while at > 0 && key(usize::from(picked[at - 1])) > k {
            picked[at] = picked[at - 1];
            at -= 1;
        }
        picked[at] = tid as u8;
        len += 1;
        if len == want && key(usize::from(picked[len - 1])) == 0 {
            break;
        }
    }
    len
}

/// Select up to `picked.len()` runnable threads to fetch from under
/// `policy`, in priority order (see [`select_by_key`]); `info(t)` reads
/// thread `t`'s key inputs and `vector_pipe_empty` feeds the BALANCE
/// policy. Returns how many threads were picked.
#[inline]
pub fn select_threads(
    policy: FetchPolicy,
    runnable: u64,
    threads: usize,
    rr_cursor: usize,
    vector_pipe_empty: bool,
    info: impl Fn(usize) -> ThreadFetchInfo,
    picked: &mut [u8],
) -> usize {
    match policy {
        FetchPolicy::RoundRobin => select_by_key(runnable, threads, rr_cursor, |_| 0, picked),
        FetchPolicy::ICount => select_by_key(
            runnable,
            threads,
            rr_cursor,
            |t| info(t).icount as u64,
            picked,
        ),
        FetchPolicy::OCount => {
            select_by_key(runnable, threads, rr_cursor, |t| info(t).ocount, picked)
        }
        // Vector pipe empty → prefer threads that fetched vector code
        // last time (feed the starved pipe); otherwise prefer threads
        // that did not (keep scalar flowing).
        FetchPolicy::Balance => select_by_key(
            runnable,
            threads,
            rr_cursor,
            |t| u64::from(info(t).fetched_vector_last != vector_pipe_empty),
            picked,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`select_threads`] over per-thread infos and a runnable set, into
    /// a fresh vector.
    fn select(
        policy: FetchPolicy,
        infos: &[ThreadFetchInfo],
        runnable: u64,
        rr_cursor: usize,
        n_select: usize,
        vector_pipe_empty: bool,
    ) -> Vec<usize> {
        let mut picked = vec![0u8; n_select];
        let len = select_threads(
            policy,
            runnable,
            infos.len(),
            rr_cursor,
            vector_pipe_empty,
            |t| infos[t],
            &mut picked,
        );
        picked[..len].iter().map(|&t| usize::from(t)).collect()
    }

    fn idle(n: usize) -> Vec<ThreadFetchInfo> {
        vec![ThreadFetchInfo::default(); n]
    }

    #[test]
    fn round_robin_rotates() {
        let infos = idle(4);
        let all = low_bits(4);
        assert_eq!(
            select(FetchPolicy::RoundRobin, &infos, all, 0, 2, false),
            vec![0, 1]
        );
        assert_eq!(
            select(FetchPolicy::RoundRobin, &infos, all, 2, 2, false),
            vec![2, 3]
        );
        assert_eq!(
            select(FetchPolicy::RoundRobin, &infos, all, 3, 2, false),
            vec![3, 0]
        );
    }

    #[test]
    fn non_runnable_threads_skipped() {
        let infos = idle(4);
        assert_eq!(
            select(FetchPolicy::RoundRobin, &infos, 0b1101, 0, 2, false),
            vec![0, 2]
        );
        assert_eq!(
            select(FetchPolicy::RoundRobin, &infos, 0b1000, 0, 2, false),
            vec![3]
        );
    }

    #[test]
    fn icount_prefers_emptier_threads() {
        let mut infos = idle(4);
        infos[0].icount = 30;
        infos[1].icount = 5;
        infos[2].icount = 12;
        infos[3].icount = 5;
        let all = low_bits(4);
        // ties (1 and 3) keep round-robin order from cursor 0
        assert_eq!(
            select(FetchPolicy::ICount, &infos, all, 0, 2, false),
            vec![1, 3]
        );
        // from cursor 3, thread 3 precedes thread 1 among ties
        assert_eq!(
            select(FetchPolicy::ICount, &infos, all, 3, 2, false),
            vec![3, 1]
        );
    }

    #[test]
    fn ocount_weighs_stream_lengths() {
        let mut infos = idle(2);
        infos[0].icount = 4; // four scalar ops
        infos[0].ocount = 4;
        infos[1].icount = 2; // two full streams: ICOUNT would prefer this
        infos[1].ocount = 32;
        assert_eq!(
            select(FetchPolicy::ICount, &infos, 0b11, 0, 1, false),
            vec![1]
        );
        assert_eq!(
            select(FetchPolicy::OCount, &infos, 0b11, 0, 1, false),
            vec![0]
        );
    }

    #[test]
    fn balance_feeds_the_starved_pipe() {
        let mut infos = idle(3);
        infos[0].fetched_vector_last = true;
        infos[1].fetched_vector_last = false;
        infos[2].fetched_vector_last = true;
        // Vector pipe empty: vector-fetching threads first.
        assert_eq!(
            select(FetchPolicy::Balance, &infos, 0b111, 0, 2, true),
            vec![0, 2]
        );
        // Vector pipe busy: scalar threads first.
        assert_eq!(
            select(FetchPolicy::Balance, &infos, 0b111, 0, 2, false)[0],
            1
        );
    }

    #[test]
    fn selection_bounded_by_n_select() {
        let infos = idle(8);
        let all = low_bits(8);
        assert_eq!(
            select(FetchPolicy::RoundRobin, &infos, all, 0, 2, false).len(),
            2
        );
        assert_eq!(
            select(FetchPolicy::RoundRobin, &infos, all, 0, 8, false).len(),
            8
        );
    }

    #[test]
    fn rotation_visits_threads_from_the_cursor() {
        assert_eq!(rotate_threads(0b1011, 0, 4), 0b1011);
        // Threads 1, 3, 0 from cursor 1: bits 0, 2, 3.
        assert_eq!(rotate_threads(0b1011, 1, 4), 0b1101);
        let all = low_bits(64);
        assert_eq!(rotate_threads(all, 63, 64), all);
        assert_eq!(rotate_threads(1, 63, 64), 0b10);
    }
}
