//! Std-backed stand-in for the `parking_lot` API subset used by this
//! workspace.
//!
//! The build environment has no network access and no vendored registry, so
//! external crates cannot be downloaded. This shim keeps the familiar
//! `parking_lot` surface (guards without `Result`, a `Condvar` that takes the
//! guard by `&mut`) while delegating to `std::sync`. Lock poisoning is
//! deliberately swallowed — `parking_lot` has no poisoning either, and a
//! panicked holder leaves state no less consistent than it would there.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::{Duration, Instant};

/// How long a contended [`Mutex::lock`] spins before it parks: about what
/// parking and being woken costs, so a wait is never more than twice the
/// cheaper of the two choices. A holder that is in a device flush or has
/// lost its CPU costs the waiter this much once, then the waiter sleeps.
const SPIN: Duration = Duration::from_micros(25);

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutual-exclusion primitive (no poisoning, like `parking_lot::Mutex`).
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(t: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(t))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(t) => t,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    ///
    /// Like the real crate, a contended `lock` first waits on-CPU for a
    /// holder that is about to leave (bounded by [`SPIN`]) and only then
    /// parks. `std`'s mutex gives up after about a microsecond, and on the
    /// two-vCPU hosts this runs on a park/unpark pair costs several times
    /// the critical sections the write path holds its locks for (a log
    /// append, a snapshot publish): two writers that collide there slept
    /// through each other's appends.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(g) = self.try_lock() {
            return g;
        }
        let start = Instant::now();
        while start.elapsed() < SPIN {
            std::hint::spin_loop();
            if let Some(g) = self.try_lock() {
                return g;
            }
        }
        match self.0.lock() {
            Ok(g) => MutexGuard(Some(g)),
            Err(p) => MutexGuard(Some(p.into_inner())),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(t) => t,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present")
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// A reader-writer lock (no poisoning, like `parking_lot::RwLock`).
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared-read RAII guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

/// Exclusive-write RAII guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(t: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(t))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(t) => t,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.0.read() {
            Ok(g) => RwLockReadGuard(g),
            Err(p) => RwLockReadGuard(p.into_inner()),
        }
    }

    /// Acquire exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.0.write() {
            Ok(g) => RwLockWriteGuard(g),
            Err(p) => RwLockWriteGuard(p.into_inner()),
        }
    }

    /// Try to acquire shared read access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(RwLockReadGuard(g)),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockReadGuard(p.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Try to acquire exclusive write access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(RwLockWriteGuard(g)),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard(p.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(t) => t,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A condition variable paired with [`Mutex`], `parking_lot`-style: `wait`
/// takes the guard by `&mut` instead of by value.
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    /// Atomically release the guard's lock and wait to be notified; the lock
    /// is re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present");
        let inner = match self.0.wait(inner) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        guard.0 = Some(inner);
    }

    /// Like [`Condvar::wait`] with an upper bound on the wait time. Returns
    /// true if the wait timed out.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) -> bool {
        let inner = guard.0.take().expect("guard present");
        let (inner, result) = match self.0.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r)
            }
        };
        guard.0 = Some(inner);
        result.timed_out()
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn contended_lock_excludes_whether_it_spun_or_parked() {
        // Holds shorter and longer than the spin window, four threads.
        let m = Arc::new(Mutex::new((0u64, 0u64)));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let mut g = m.lock();
                        let (entered, left) = &mut *g;
                        *entered += 1;
                        if (i + t) % 50 == 0 {
                            std::thread::sleep(SPIN * 4);
                        }
                        *left += 1;
                        assert_eq!(entered, left, "two holders at once");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*m.lock(), (800, 800));
    }

    #[test]
    fn rwlock_readers_coexist() {
        let l = RwLock::new(5);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 10);
        assert!(l.try_write().is_none());
        drop((a, b));
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn condvar_signals_across_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            cv.wait(&mut done);
        }
        t.join().unwrap();
    }
}
