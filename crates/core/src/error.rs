//! Scheduler error types.

use crate::ids::JobId;
use crate::request::RequestError;
use crate::time::Time;

/// Why a request could not be scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// The request itself is malformed.
    InvalidRequest(RequestError),
    /// The request asks for more servers than the system has (`n_r > N`).
    TooManyServers {
        /// Servers requested.
        requested: u32,
        /// Servers in the system.
        available: u32,
    },
    /// No feasible start time was found within `R_max` attempts.
    ///
    /// `last_tried` is the last candidate start time examined, so callers can
    /// resubmit later or widen their window.
    Exhausted {
        /// Number of attempts made (`<= R_max`).
        attempts: u32,
        /// The last candidate start time tried.
        last_tried: Time,
    },
    /// Every remaining candidate start would end past the scheduling horizon.
    HorizonExceeded {
        /// The end of the current horizon.
        horizon_end: Time,
    },
    /// The earliest start lies in the past relative to the scheduler clock.
    StartInPast {
        /// The scheduler's current time.
        now: Time,
    },
    /// A commit referenced a job that does not exist (release/commit paths).
    UnknownJob(JobId),
    /// A two-phase commit found the selected periods no longer available.
    SelectionConflict,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::InvalidRequest(e) => write!(f, "invalid request: {e}"),
            ScheduleError::TooManyServers {
                requested,
                available,
            } => write!(
                f,
                "request needs {requested} servers but the system has only {available}"
            ),
            ScheduleError::Exhausted {
                attempts,
                last_tried,
            } => write!(
                f,
                "no feasible start found after {attempts} attempts (last tried {last_tried})"
            ),
            ScheduleError::HorizonExceeded { horizon_end } => {
                write!(f, "request does not fit before the horizon ({horizon_end})")
            }
            ScheduleError::StartInPast { now } => {
                write!(f, "requested start precedes the scheduler clock ({now})")
            }
            ScheduleError::UnknownJob(j) => write!(f, "unknown job {j}"),
            ScheduleError::SelectionConflict => {
                write!(f, "selected resources were taken before commit")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<RequestError> for ScheduleError {
    fn from(e: RequestError) -> Self {
        ScheduleError::InvalidRequest(e)
    }
}
