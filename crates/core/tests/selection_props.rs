//! `SelectionPolicy::select_in_place` keeps the `n` best periods by
//! partitioning, not by sorting the whole feasible set. The contract is
//! that nobody can tell: same periods, same order as "sort everything by
//! the policy's total key, then truncate" — also when the primary key is
//! heavily tied and the `(server, id)` suffix decides.

use coalloc_core::ids::PeriodId;
use coalloc_core::prelude::*;
use proptest::prelude::*;

const POLICIES: [SelectionPolicy; 4] = [
    SelectionPolicy::PaperOrder,
    SelectionPolicy::BestFit,
    SelectionPolicy::WorstFit,
    SelectionPolicy::ByServerId,
];

/// The reference: the full sort each policy's documentation describes.
fn sort_then_truncate(
    policy: SelectionPolicy,
    mut set: Vec<IdlePeriod>,
    n: usize,
    end: Time,
) -> Vec<IdlePeriod> {
    match policy {
        SelectionPolicy::PaperOrder => {
            set.sort_by_key(|p| (std::cmp::Reverse(p.start), p.server, p.id))
        }
        SelectionPolicy::BestFit => set.sort_by_key(|p| (p.end - end, p.server, p.id)),
        SelectionPolicy::WorstFit => {
            set.sort_by_key(|p| (std::cmp::Reverse(p.end - end), p.server, p.id))
        }
        SelectionPolicy::ByServerId => set.sort_by_key(|p| (p.server, p.id)),
    }
    set.truncate(n);
    set
}

/// Feasible sets for a job ending at 100: starts and ends drawn from three
/// values each (so most primary keys tie), some ends open, servers drawn
/// from a small range with repeats (the id then decides), shuffled by the
/// generated order itself.
fn feasible_set() -> impl Strategy<Value = Vec<IdlePeriod>> {
    prop::collection::vec((0u32..12, 0i64..3, 0i64..4), 0..60).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (server, s, e))| IdlePeriod {
                id: PeriodId(1000 - i as u64),
                server: ServerId(server),
                start: Time(s * 10),
                end: if e == 3 {
                    Time::INF
                } else {
                    Time(100 + e * 50)
                },
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn top_n_partition_equals_full_sort(set in feasible_set(), pick in 0usize..70) {
        let end = Time(100);
        for policy in POLICIES {
            // n = 0, n < len, n = len and n > len all occur: `pick` ranges
            // past the longest set, and the edge values are forced below.
            for n in [0, pick, set.len(), set.len() + 1] {
                let mut got = set.clone();
                policy.select_in_place(&mut got, n, end);
                let want = sort_then_truncate(policy, set.clone(), n, end);
                prop_assert_eq!(&got, &want, "{:?} n={} of {}", policy, n, set.len());
            }
        }
    }
}
