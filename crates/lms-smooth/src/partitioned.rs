//! Kept only as a path: the frozen benchmark harness imports
//! `lms::smooth::partitioned::interface_classes`, which lives in
//! [`crate::resident`].

pub use crate::resident::interface_classes;
