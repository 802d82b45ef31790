//! The batched ring write path is invisible on the wire: a fixed script of
//! interleaved `submit` / `release` / `advance` / `query` lines yields
//! byte-identical replies on a session whose scheduler batches its index
//! updates and on one forced down the one-update-at-a-time path. `query`
//! lists its hits in tree-discovery order, so this pins primary-tree
//! shapes and the key order of every secondary, not just decisions.

use coalloc_net::Session;

/// splitmix64: the script must not depend on the vendored `rand`.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn batched_and_eager_sessions_reply_byte_identically() {
    let mut batched = Session::new(1);
    let mut eager = Session::new(1);
    for s in [&mut batched, &mut eager] {
        assert_eq!(s.exec("init 40 10 640 10").unwrap(), "ok 40 servers");
    }
    eager.force_eager_ring_updates();

    let mut rng = 0x0BA7_C4ED_u64;
    let mut now = 0u64;
    let mut jobs: Vec<u64> = Vec::new();
    let mut wide_grants = 0;
    for step in 0..400 {
        let r = mix(&mut rng);
        let line = match r % 8 {
            // Wide and narrow grants, mostly into booked territory so they
            // split finite holes (the ring's share of the work).
            0..=3 => {
                let start = now + (r >> 8) % 300;
                let len = 5 + (r >> 20) % 90;
                let n = if r & (1 << 40) == 0 {
                    1 + (r >> 32) % 6
                } else {
                    12 + (r >> 32) % 28
                };
                format!("submit {now} {start} {len} {n}")
            }
            4 if !jobs.is_empty() => {
                let job = jobs.swap_remove((r >> 8) as usize % jobs.len());
                format!("release {job}")
            }
            5 => {
                now += (r >> 8) % 35;
                format!("advance {now}")
            }
            _ => {
                let a = now + (r >> 8) % 200;
                format!("query {a} {}", a + 1 + (r >> 24) % 120)
            }
        };
        let reply = batched.exec(&line).unwrap();
        assert_eq!(reply, eager.exec(&line).unwrap(), "step {step}: '{line}'");
        if let Some(rest) = reply.strip_prefix("granted job=") {
            jobs.push(rest.split(' ').next().unwrap().parse().unwrap());
            wide_grants += (reply.matches(',').count() >= 11) as u32;
        }
        for s in [&mut batched, &mut eager] {
            assert_eq!(s.exec("check").unwrap(), "ok", "step {step}: '{line}'");
        }
    }
    // The batched session must really have deferred, and both new metrics
    // are on the `metrics` reply (what `/metrics` serves).
    let metrics = batched.exec("metrics").unwrap();
    let deferred = metrics
        .lines()
        .find_map(|l| l.strip_prefix("ring_batches_deferred_total "))
        .expect("ring_batches_deferred_total exported");
    assert!(deferred.parse::<u64>().unwrap() > 0, "no batch deferred");
    assert!(
        metrics.contains("ring_batch_ops_count "),
        "ring_batch_ops exported"
    );
    assert!(
        wide_grants >= 20,
        "the script must exercise wide grants, got {wide_grants}"
    );
}
