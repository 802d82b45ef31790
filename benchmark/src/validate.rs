//! An independent check of every reply, sharing no code with the
//! scheduler: it keeps its own per-server book of live reservations and
//! tests each `granted` and `query` reply against it.

use crate::gen::{Geometry, Op};
use std::collections::{BTreeMap, HashMap};

/// What a reply decided, in a form every pass can produce and compare.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    Granted {
        job: u64,
        start: i64,
        end: i64,
        servers: Vec<u32>,
    },
    Rejected,
    /// A well-formed reply that decides nothing (`ok`, `free K`, ...).
    Other,
}

struct Booking {
    start: i64,
    servers: Vec<u32>,
}

pub struct Validator {
    geometry: Geometry,
    now: i64,
    /// Per server: start → end of every live reservation (disjoint).
    busy: Vec<BTreeMap<i64, i64>>,
    jobs: HashMap<u64, Booking>,
    last_prune: i64,
}

fn field<'a>(token: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    token
        .and_then(|t| t.strip_prefix(key))
        .and_then(|t| t.strip_prefix('='))
        .ok_or_else(|| format!("reply lacks field '{key}'"))
}

fn num<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("bad {what} '{text}'"))
}

impl Validator {
    pub fn new(geometry: Geometry) -> Validator {
        Validator {
            geometry,
            now: 0,
            busy: vec![BTreeMap::new(); geometry.servers as usize],
            jobs: HashMap::new(),
            last_prune: 0,
        }
    }

    /// Whether `server` holds no live reservation overlapping `[a, b)`.
    /// Reservations on one server are disjoint, so only the latest one
    /// starting before `b` can overlap.
    fn free(&self, server: u32, a: i64, b: i64) -> bool {
        match self.busy[server as usize].range(..b).next_back() {
            Some((_, &end)) => end <= a,
            None => true,
        }
    }

    /// Forget reservations that ended before the clock, so the book stays
    /// as small as the live schedule.
    fn prune(&mut self) {
        let now = self.now;
        for book in &mut self.busy {
            book.retain(|_, end| *end > now);
        }
        self.jobs.retain(|_, b| {
            b.servers
                .iter()
                .any(|&s| self.busy[s as usize].contains_key(&b.start))
        });
        self.last_prune = now;
    }

    /// Check the reply to `op` and say what it decided. `Err` describes the
    /// violation; the reply counts as failed.
    pub fn check(&mut self, op: &Op, reply: &str) -> Result<Outcome, String> {
        if reply.starts_with("busy") || reply.starts_with("error") {
            return Err(format!("refused: {reply}"));
        }
        match *op {
            Op::Advance(t) => {
                if reply != format!("ok now={t}") {
                    return Err(format!("advance {t} answered '{reply}'"));
                }
                self.now = self.now.max(t);
                if self.now - self.last_prune >= 32 * self.geometry.tau {
                    self.prune();
                }
                Ok(Outcome::Other)
            }
            Op::Submit { s, l, n, .. } => {
                if reply.starts_with("rejected ") {
                    return Ok(Outcome::Rejected);
                }
                self.check_grant(s, l, n, reply)
            }
            Op::Release(job) => {
                if reply != "ok" {
                    return Err(format!("release {job} answered '{reply}'"));
                }
                if let Some(b) = self.jobs.remove(&job) {
                    for s in b.servers {
                        self.busy[s as usize].remove(&b.start);
                    }
                }
                Ok(Outcome::Other)
            }
            Op::Query(a, b) => self.check_query(a, b, reply).map(|()| Outcome::Other),
        }
    }

    fn check_grant(&mut self, s: i64, l: i64, n: u32, reply: &str) -> Result<Outcome, String> {
        let mut tok = reply.split(' ');
        if tok.next() != Some("granted") {
            return Err(format!("submit answered '{reply}'"));
        }
        let job: u64 = num(field(tok.next(), "job")?, "job")?;
        let start: i64 = num(field(tok.next(), "start")?, "start")?;
        let end: i64 = num(field(tok.next(), "end")?, "end")?;
        let attempts: i64 = num(field(tok.next(), "attempts")?, "attempts")?;
        let wait: i64 = num(field(tok.next(), "wait")?, "wait")?;
        let servers = field(tok.next(), "servers")?
            .split(',')
            .map(|t| num::<u32>(t, "server id"))
            .collect::<Result<Vec<u32>, String>>()?;

        if end - start != l {
            return Err(format!(
                "job {job}: end-start = {} but l = {l}",
                end - start
            ));
        }
        // A job cannot start in the past: the first attempt is at max(s, now).
        let first = s.max(self.now);
        if attempts < 1 || start != first + (attempts - 1) * self.geometry.delta_t {
            return Err(format!(
                "job {job}: start {start} is not s + (attempts-1)*delta_t = {first} + {}*{}",
                attempts - 1,
                self.geometry.delta_t
            ));
        }
        if wait != start - s {
            return Err(format!(
                "job {job}: wait {wait} but start-s = {}",
                start - s
            ));
        }
        if servers.len() != n as usize {
            return Err(format!(
                "job {job}: {} servers granted, {n} requested",
                servers.len()
            ));
        }
        if self.jobs.contains_key(&job) {
            return Err(format!("job id {job} granted twice"));
        }
        let mut seen = servers.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != servers.len() {
            return Err(format!("job {job}: a server is listed twice"));
        }
        for &srv in &servers {
            if srv >= self.geometry.servers {
                return Err(format!(
                    "job {job}: server {srv} >= N = {}",
                    self.geometry.servers
                ));
            }
            if !self.free(srv, start, end) {
                return Err(format!(
                    "job {job}: server {srv} double-booked over [{start}, {end})"
                ));
            }
        }
        for &srv in &servers {
            self.busy[srv as usize].insert(start, end);
        }
        self.jobs.insert(
            job,
            Booking {
                start,
                servers: servers.clone(),
            },
        );
        Ok(Outcome::Granted {
            job,
            start,
            end,
            servers,
        })
    }

    /// A `query a b` reply must list exactly the servers this book holds
    /// free over `[a, b)`.
    fn check_query(&self, a: i64, b: i64, reply: &str) -> Result<(), String> {
        let mut lines = reply.lines();
        let head = lines.next().unwrap_or("");
        let count: usize = num(head.strip_prefix("free ").unwrap_or(""), "query head")?;
        let mut listed = Vec::with_capacity(count);
        for line in lines {
            let tok = line.split_whitespace().next();
            listed.push(num::<u32>(field(tok, "server")?, "server id")?);
        }
        if listed.len() != count {
            return Err(format!(
                "query head says {count}, {} lines follow",
                listed.len()
            ));
        }
        listed.sort_unstable();
        let a = a.max(self.now);
        let expect: Vec<u32> = (0..self.geometry.servers)
            .filter(|&s| self.free(s, a, b))
            .collect();
        if listed != expect {
            return Err(format!(
                "query [{a}, {b}): reply lists {} servers, the book holds {} free",
                listed.len(),
                expect.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validator() -> Validator {
        Validator::new(Geometry {
            servers: 4,
            tau: 900,
            horizon: 86_400,
            delta_t: 900,
        })
    }

    const SUBMIT: Op = Op::Submit {
        q: 0,
        s: 0,
        l: 1800,
        n: 2,
    };

    #[test]
    fn accepts_a_correct_grant_and_release() {
        let mut v = validator();
        let out = v.check(
            &SUBMIT,
            "granted job=0 start=0 end=1800 attempts=1 wait=0 servers=0,1",
        );
        assert_eq!(
            out,
            Ok(Outcome::Granted {
                job: 0,
                start: 0,
                end: 1800,
                servers: vec![0, 1]
            })
        );
        // The second attempt shifts by one delta_t.
        let out = v.check(
            &SUBMIT,
            "granted job=1 start=900 end=2700 attempts=2 wait=900 servers=2,3",
        );
        assert!(out.is_ok(), "{out:?}");
        assert_eq!(v.check(&Op::Release(0), "ok"), Ok(Outcome::Other));
        // Released servers may be granted again.
        let out = v.check(
            &SUBMIT,
            "granted job=2 start=0 end=1800 attempts=1 wait=0 servers=0,1",
        );
        assert!(out.is_ok(), "{out:?}");
        assert_eq!(
            v.check(&SUBMIT, "rejected no feasible start"),
            Ok(Outcome::Rejected)
        );
    }

    #[test]
    fn rejects_a_double_booking() {
        let mut v = validator();
        v.check(
            &SUBMIT,
            "granted job=0 start=0 end=1800 attempts=1 wait=0 servers=0,1",
        )
        .unwrap();
        let err = v
            .check(
                &SUBMIT,
                "granted job=1 start=900 end=2700 attempts=2 wait=900 servers=1,2",
            )
            .unwrap_err();
        assert!(err.contains("double-booked"), "{err}");
    }

    #[test]
    fn rejects_a_misaligned_start() {
        let mut v = validator();
        let err = v
            .check(
                &SUBMIT,
                "granted job=0 start=450 end=2250 attempts=2 wait=450 servers=0,1",
            )
            .unwrap_err();
        assert!(err.contains("delta_t"), "{err}");
    }

    #[test]
    fn rejects_wrong_sizes_and_ids() {
        let mut v = validator();
        for reply in [
            "granted job=0 start=0 end=900 attempts=1 wait=0 servers=0,1", // l
            "granted job=0 start=0 end=1800 attempts=1 wait=0 servers=0",  // n
            "granted job=0 start=0 end=1800 attempts=1 wait=0 servers=0,0", // distinct
            "granted job=0 start=0 end=1800 attempts=1 wait=0 servers=0,4", // < N
            "busy retry-after 1",
            "error: bad n_r: 'x'",
        ] {
            assert!(v.check(&SUBMIT, reply).is_err(), "accepted '{reply}'");
        }
    }

    #[test]
    fn rejects_an_incomplete_query_reply() {
        let mut v = validator();
        v.check(
            &SUBMIT,
            "granted job=0 start=0 end=1800 attempts=1 wait=0 servers=0,1",
        )
        .unwrap();
        let full = "free 2\n  server=3 idle=[0, inf) slack=inf\n  server=2 idle=[0, inf) slack=inf";
        assert_eq!(v.check(&Op::Query(0, 900), full), Ok(Outcome::Other));
        // After the reservation every server is free again.
        let later = "free 4\n  server=0 idle=[1800, inf) slack=inf\n  server=1 idle=[1800, inf) slack=inf\n  server=2 idle=[0, inf) slack=inf\n  server=3 idle=[0, inf) slack=inf";
        assert_eq!(v.check(&Op::Query(1800, 2700), later), Ok(Outcome::Other));
        let missing = "free 1\n  server=3 idle=[0, inf) slack=inf";
        assert!(v.check(&Op::Query(0, 900), missing).is_err());
        let busy_listed = "free 3\n  server=0 idle=[0, inf) slack=inf\n  server=2 idle=[0, inf) slack=inf\n  server=3 idle=[0, inf) slack=inf";
        assert!(v.check(&Op::Query(0, 900), busy_listed).is_err());
        let short = "free 2\n  server=3 idle=[0, inf) slack=inf";
        assert!(v.check(&Op::Query(0, 900), short).is_err());
    }
}
