//! The four workloads. Their names are fixed: later issues cite them.

pub mod crash_resume;
pub mod durable_write;
pub mod point_read;
pub mod tpch_phoenix;
