/**
 * @file
 * Clang Thread Safety Analysis annotations and the annotated mutex
 * wrappers every concurrent translation unit in this repo uses.
 *
 * The engine stack's core guarantee — bit-identical search results at
 * any MSE_THREADS — rests on a dozen mutex-bearing files (thread pool,
 * metrics, service queue, mapping store, TCP server).
 * Runtime tests and sanitizers can only catch the interleavings they
 * happen to execute; Clang's -Wthread-safety analysis proves the
 * locking discipline for *every* path at compile time, from the
 * GUARDED_BY / REQUIRES / ACQUIRE / RELEASE contracts declared here.
 *
 * Under any compiler without the capability attributes (GCC, MSVC) the
 * macros expand to nothing, so the annotations are zero-cost
 * documentation; under Clang with -Wthread-safety (the
 * MSE_THREAD_SAFETY=ON CMake configuration, enforced in CI with
 * -Werror) they are a hard gate.
 *
 * Usage rules (enforced by tools/mse_lint.py rule `raw-mutex`):
 *  - never declare a bare std::mutex / std::lock_guard /
 *    std::unique_lock in src/ — use mse::Mutex, mse::MutexLock, and
 *    mse::MutexUniqueLock (for condition-variable waits) so every lock
 *    participates in the analysis;
 *  - every mse::Mutex member must have at least one GUARDED_BY /
 *    REQUIRES contract referring to it;
 *  - condition-variable predicates are written as explicit while loops
 *    around cv.wait(lk.native()) in the locking function's own scope
 *    (the analysis does not propagate lock state into lambdas).
 *
 * The only thread-safety suppressions allowed in the repo live in this
 * header (the wrapper internals the analysis cannot see through).
 *
 * Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
 */
#pragma once

#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------------
// Attribute macros (Abseil-style; no-ops outside Clang).
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define MSE_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#endif
#endif
#ifndef MSE_THREAD_ANNOTATION_ATTRIBUTE
#define MSE_THREAD_ANNOTATION_ATTRIBUTE(x) // no-op
#endif

/** Marks a class as a lockable capability (e.g. a mutex type). */
#define CAPABILITY(x) MSE_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/** Marks an RAII class that acquires on construction, releases on
 *  destruction. */
#define SCOPED_CAPABILITY MSE_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/** Data member readable/writable only while holding x. */
#define GUARDED_BY(x) MSE_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/** Pointer member whose pointee is guarded by x. */
#define PT_GUARDED_BY(x) MSE_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/** Function requires the listed capabilities held on entry (and still
 *  held on exit). */
#define REQUIRES(...) \
    MSE_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/** Function acquires the listed capabilities; they must not be held on
 *  entry. */
#define ACQUIRE(...) \
    MSE_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/** Function releases the listed capabilities; they must be held on
 *  entry. */
#define RELEASE(...) \
    MSE_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/** Function acquires the capability iff it returns `ret`. */
#define TRY_ACQUIRE(ret, ...) \
    MSE_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(ret, __VA_ARGS__))

/** Function must NOT be called with the listed capabilities held
 *  (deadlock guard for functions that acquire them internally). */
#define EXCLUDES(...) \
    MSE_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/** Asserts (at runtime, for the analysis) the capability is held. */
#define ASSERT_CAPABILITY(x) \
    MSE_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

/** Function returns a reference to the given capability. */
#define RETURN_CAPABILITY(x) MSE_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/** Lock-ordering declarations (deadlock prevention). */
#define ACQUIRED_BEFORE(...) \
    MSE_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
    MSE_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

/** Opt a function out of the analysis (wrapper internals only; the
 *  repo gate forbids this outside thread_annotations.hpp). */
#define NO_THREAD_SAFETY_ANALYSIS \
    MSE_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace mse {

// ---------------------------------------------------------------------------
// Annotated std::mutex wrappers.
// ---------------------------------------------------------------------------

/**
 * std::mutex carrying the `capability` attribute so GUARDED_BY /
 * REQUIRES contracts can reference it. Same size and cost as the
 * wrapped mutex; native() exposes the underlying handle for
 * condition-variable waits (via MutexUniqueLock — never lock or unlock
 * through native() directly, the analysis cannot see it).
 */
class CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ACQUIRE() { mu_.lock(); }
    void unlock() RELEASE() { mu_.unlock(); }
    bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

    std::mutex &native() { return mu_; }

  private:
    std::mutex mu_;
};

/**
 * Scoped lock (the std::lock_guard analog). Acquires in the
 * constructor, releases in the destructor; the SCOPED_CAPABILITY
 * attribute lets the analysis track the region it covers.
 */
class SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
    ~MutexLock() RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

/**
 * Scoped lock backed by a std::unique_lock, for condition-variable
 * waits: pass native() to std::condition_variable::wait. The
 * constructor locks through the annotated Mutex::lock() and *adopts*
 * the ownership into the unique_lock, so the analysis sees a real
 * acquire; the destructor symmetrically releases ownership from the
 * unique_lock and unlocks through the annotated path.
 *
 * cv.wait(native()) unlocks and relocks internally — invisible to the
 * analysis, which is sound here because the capability is held both
 * before and after the call. Guarded reads in a wait *predicate* must
 * therefore be written as an explicit while loop in the caller's scope
 * (see the usage rules in the file comment).
 */
class SCOPED_CAPABILITY MutexUniqueLock
{
  public:
    explicit MutexUniqueLock(Mutex &mu) ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
        lk_ = std::unique_lock<std::mutex>(mu_.native(), std::adopt_lock);
    }

    ~MutexUniqueLock() RELEASE()
    {
        if (lk_.owns_lock()) {
            lk_.release(); // Disassociate without unlocking...
            mu_.unlock();  // ...then release through the annotated path.
        }
    }

    MutexUniqueLock(const MutexUniqueLock &) = delete;
    MutexUniqueLock &operator=(const MutexUniqueLock &) = delete;

    /** The underlying lock, for std::condition_variable::wait only. */
    std::unique_lock<std::mutex> &native() { return lk_; }

  private:
    Mutex &mu_;
    std::unique_lock<std::mutex> lk_;
};

} // namespace mse
