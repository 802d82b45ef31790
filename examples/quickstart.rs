//! Quickstart: the core co-allocation API in one small scenario.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use coalloc::prelude::*;

fn main() {
    // A 8-server system; 15-minute slots, 2-day horizon, 15-minute retry
    // increment — the paper's evaluation settings, scaled down.
    let cfg = SchedulerConfig::builder()
        .tau(Dur::from_mins(15))
        .horizon(Dur::from_hours(48))
        .delta_t(Dur::from_mins(15))
        .build();
    let mut sched = CoAllocScheduler::new(8, cfg);
    println!(
        "system: {} servers, horizon until {}",
        sched.num_servers(),
        sched.horizon_end()
    );

    // 1. On-demand co-allocation: 4 servers for 2 hours, right now.
    let grant = sched
        .submit(&Request::on_demand(Time::ZERO, Dur::from_hours(2), 4))
        .expect("empty system");
    println!(
        "job {:?}: {} servers at {} for 2h (attempts: {}, wait: {})",
        grant.job,
        grant.servers.len(),
        grant.start,
        grant.attempts,
        grant.waiting
    );

    // 2. A second large job cannot fit concurrently and is shifted by the
    //    Delta_t retry loop — the paper's Section 4.2 behaviour.
    let grant2 = sched
        .submit(&Request::on_demand(Time::ZERO, Dur::from_hours(1), 6))
        .expect("fits after the first job");
    println!(
        "job {:?}: delayed to {} after {} attempts (wait: {})",
        grant2.job, grant2.start, grant2.attempts, grant2.waiting
    );

    // 3. Advance reservation: book 5 servers for tomorrow 09:00-10:00.
    let tomorrow_9am = Time::from_hours(24 + 9);
    let grant3 = sched
        .submit(&Request::advance(
            Time::ZERO,
            tomorrow_9am,
            Dur::from_hours(1),
            5,
        ))
        .expect("the future is free");
    println!(
        "job {:?}: advance reservation at {}",
        grant3.job, grant3.start
    );

    // 4. Range search: what is free tomorrow 08:00-12:00?
    let free = sched.range_search(Time::from_hours(32), Time::from_hours(36));
    println!(
        "free for the whole 08:00-12:00 window tomorrow: {} resources",
        free.len()
    );

    // 5. Query-then-commit: take the two with the most slack.
    let mut picks = free.clone();
    picks.sort_by_key(|a| std::cmp::Reverse(a.tail_slack));
    let selection: Vec<ServerId> = picks.iter().take(2).map(|a| a.server).collect();
    match sched.reserve(&selection, Time::from_hours(32), Time::from_hours(33)) {
        Ok(g) => println!("committed user selection as {:?} on {:?}", g.job, g.servers),
        Err(e) => println!("selection was taken in the meantime: {e}"),
    }

    // 6. Cancel the advance reservation; capacity returns.
    sched.release(grant3.job).expect("job exists");
    let free_again = sched.range_search(tomorrow_9am, tomorrow_9am + Dur::from_hours(1));
    println!(
        "after cancellation, {} resources free at 09:00",
        free_again.len()
    );

    // 7. Operation accounting (the paper's Figure 7b metric).
    let s = sched.stats();
    println!(
        "data-structure ops so far: {} (search {}, update {})",
        s.total_ops(),
        s.search_ops(),
        s.update_visits
    );
}
