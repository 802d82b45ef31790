//! The single source of truth for the line protocol's command surface.
//!
//! Every command the [`Session`](crate::session::Session) parser accepts is
//! described by one [`CommandSpec`] row in [`COMMANDS`]. The `help` reply,
//! the normative spec in `docs/PROTOCOL.md`, and the parser tests are all
//! derived from (or checked against) this table, so the three can never
//! drift apart again: adding a command means adding a row here, and the
//! shared-table tests fail until the parser and `docs/PROTOCOL.md` agree.
//!
//! The wire format itself is specified normatively in `docs/PROTOCOL.md`;
//! this module only carries the machine-readable half.

/// Protocol version, reported by the `version` command. Bump the minor on
/// backwards-compatible additions (new commands, new reply fields after the
/// existing ones), the major on anything that changes an existing reply.
pub const PROTOCOL_VERSION: &str = "coalloc/1.2";

/// Default cap on one command line, in bytes (newline excluded). Longer
/// lines are a framing error: the server replies `error: line too long`
/// and closes the connection, since it cannot tell where the next command
/// starts.
pub const DEFAULT_MAX_LINE: usize = 4096;

/// The reply sent when the server sheds load (command queue or accept
/// backlog full). Clients should wait at least the advertised number of
/// seconds before retrying. See `docs/PROTOCOL.md` § Admission control.
pub const BUSY_REPLY: &str = "busy retry-after 1";

/// One row of the command table: everything the docs, the `help` reply and
/// the tests need to know about a command.
#[derive(Clone, Copy, Debug)]
pub struct CommandSpec {
    /// The command word, as typed on the wire.
    pub name: &'static str,
    /// Usage line: command word plus argument placeholders.
    pub usage: &'static str,
    /// One-line human summary (shows up in generated docs).
    pub summary: &'static str,
    /// A canonical example line that must parse (shared-table test). An
    /// example may rely on a scheduler created by an earlier example; the
    /// table is ordered so `init` comes first.
    pub example: &'static str,
    /// Whether an `Ok` reply implies scheduler state may have changed.
    /// The write-ahead log appends exactly these commands (with their
    /// replies) before releasing the reply, so recovery can replay them
    /// and verify byte-identical decisions (DESIGN.md §13).
    pub mutates: bool,
}

/// Every command the session parser accepts, in `help` display order.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "init",
        usage: "init N [tau horizon delta_t]",
        summary: "create an N-server scheduler (times in seconds)",
        example: "init 4 10 400 10",
        mutates: true,
    },
    CommandSpec {
        name: "submit",
        usage: "submit q s l n",
        summary: "request n servers for [s, s+l) submitted at q",
        example: "submit 0 0 50 2",
        mutates: true,
    },
    CommandSpec {
        name: "deadline",
        usage: "deadline q s l n D",
        summary: "like submit, but the job must complete by D",
        example: "deadline 0 0 20 1 100",
        mutates: true,
    },
    CommandSpec {
        name: "constrained",
        usage: "constrained q s l n MASK",
        summary: "submit restricted to servers whose attrs cover MASK",
        example: "constrained 0 0 30 1 0",
        mutates: true,
    },
    CommandSpec {
        name: "attrs",
        usage: "attrs SERVER MASK",
        summary: "tag a server with a capability bitmask",
        example: "attrs 0 5",
        mutates: true,
    },
    CommandSpec {
        name: "query",
        usage: "query a b",
        summary: "count + list resources free for all of [a, b)",
        example: "query 0 50",
        mutates: false,
    },
    CommandSpec {
        name: "release",
        usage: "release JOB",
        summary: "cancel a granted job",
        example: "release 0",
        mutates: true,
    },
    CommandSpec {
        name: "advance",
        usage: "advance T",
        summary: "move the scheduler clock to T",
        example: "advance 20",
        mutates: true,
    },
    CommandSpec {
        name: "stats",
        usage: "stats",
        summary: "clock, horizon, utilization and op counters",
        example: "stats",
        mutates: false,
    },
    CommandSpec {
        name: "metrics",
        usage: "metrics",
        summary: "Prometheus-style exposition of all obs counters",
        example: "metrics",
        mutates: false,
    },
    CommandSpec {
        name: "check",
        usage: "check",
        summary: "run the scheduler's internal consistency checks",
        example: "check",
        mutates: false,
    },
    CommandSpec {
        name: "slow",
        usage: "slow",
        summary: "dump the tail-captured slow/shed/errored requests",
        example: "slow",
        mutates: false,
    },
    CommandSpec {
        name: "snapshot",
        usage: "snapshot PATH",
        summary: "persist full scheduler state to PATH",
        example: "snapshot /tmp/coalloc-proto-example.txt",
        mutates: false,
    },
    CommandSpec {
        name: "load",
        usage: "load PATH",
        summary: "restore scheduler state from PATH",
        example: "load /tmp/coalloc-proto-example.txt",
        mutates: true,
    },
    CommandSpec {
        name: "version",
        usage: "version",
        summary: "report the protocol version",
        example: "version",
        mutates: false,
    },
    CommandSpec {
        name: "help",
        usage: "help",
        summary: "list the available commands",
        example: "help",
        mutates: false,
    },
    CommandSpec {
        name: "exit",
        usage: "exit",
        summary: "end the session (close the connection / stop reading)",
        example: "exit",
        mutates: false,
    },
];

/// Look up a command row by its wire name.
pub fn spec(name: &str) -> Option<&'static CommandSpec> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// Whether a command word can change scheduler state on an `Ok` reply —
/// the write-ahead set. Unknown words are not mutating (they can only
/// produce errors).
pub fn mutating(name: &str) -> bool {
    spec(name).is_some_and(|c| c.mutates)
}

/// The `help` reply, generated from [`COMMANDS`] so it can never drift from
/// the parser (the session's dispatch is tested against the same table).
pub fn help_text() -> String {
    let mut out = String::from("commands:");
    for c in COMMANDS {
        out.push(' ');
        out.push_str(c.name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_sorted_for_help() {
        let mut seen = std::collections::HashSet::new();
        for c in COMMANDS {
            assert!(seen.insert(c.name), "duplicate command {}", c.name);
            assert!(
                c.usage.starts_with(c.name),
                "usage of {} must start with the command word",
                c.name
            );
            assert!(
                c.example.starts_with(c.name),
                "example of {} must start with the command word",
                c.name
            );
        }
    }

    /// The shared-table contract, docs half: the normative spec documents
    /// every command the parser accepts (a `### <name>` section each),
    /// states the protocol version, and spells the busy reply correctly.
    #[test]
    fn protocol_doc_covers_every_command() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/PROTOCOL.md");
        let doc = std::fs::read_to_string(path).expect("read docs/PROTOCOL.md");
        for c in COMMANDS {
            let heading = format!("### {}", c.name);
            assert!(
                doc.lines().any(|l| l.trim_end() == heading),
                "docs/PROTOCOL.md is missing the section '{heading}'"
            );
        }
        assert!(doc.contains(PROTOCOL_VERSION), "doc must state the version");
        assert!(doc.contains(BUSY_REPLY), "doc must spell the busy reply");
    }

    #[test]
    fn help_lists_every_command() {
        let help = help_text();
        for c in COMMANDS {
            assert!(help.contains(c.name), "help missing {}", c.name);
        }
    }
}
