#include "runner.hh"

#include <algorithm>
#include <sstream>

namespace tmi::driver
{

namespace
{

std::string
joinErrors(const std::vector<ConfigError> &errors)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (i)
            os << "; ";
        os << errors[i].field << ": " << errors[i].message;
    }
    return os.str();
}

} // namespace

void
SweepStats::count(const JobResult &result)
{
    switch (result.status) {
      case JobStatus::Ok:
        ++ok;
        break;
      case JobStatus::Failed:
        ++failed;
        break;
      case JobStatus::TimedOut:
        ++timedOut;
        break;
      case JobStatus::Cancelled:
        ++cancelled;
        break;
      case JobStatus::Poisoned:
        ++poisoned;
        break;
    }
    if (result.attempts > 1)
        retries += result.attempts - 1;
}

Runner::Runner(RunnerOptions options) : _opts(std::move(options))
{
    if (_opts.maxAttempts == 0)
        _opts.maxAttempts = 1;
    if (!_opts.progressStream)
        _opts.progressStream = stderr;
}

std::vector<JobResult>
Runner::run(std::vector<Job> jobs, ResultSink *sink)
{
    // Delivery order is input order, whatever ids the caller chose.
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].id = i;

    _jobs = &jobs;
    _sink = sink;
    _stop.store(false, std::memory_order_relaxed);
    _pending.clear();
    _nextId = 0;
    _ordered.clear();
    if (_opts.collectResults)
        _ordered.reserve(jobs.size());
    _stats = {};
    _stats.total = jobs.size();
    _startedAt = std::chrono::steady_clock::now();

    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    _workers = _opts.workers ? _opts.workers : hw;
    if (jobs.size() < _workers)
        _workers = std::max<std::size_t>(1, jobs.size());

    _queues.clear();
    for (unsigned w = 0; w < _workers; ++w)
        _queues.push_back(std::make_unique<WorkerQueue>());
    // Round-robin deal keeps each worker's share in id order (the
    // owner pops the front, thieves steal the back).
    for (std::size_t i = 0; i < jobs.size(); ++i)
        _queues[i % _workers]->jobs.push_back(i);

    _timeoutSlots.assign(_workers, {});
    _timeoutLoopExit = false;
    std::thread timeout_thread;
    if (_opts.jobTimeout.count() > 0)
        timeout_thread = std::thread([this] { timeoutLoop(); });

    if (_workers == 1) {
        // Inline on the caller's thread: zero pool overhead and the
        // reference execution order for the determinism tests.
        workerLoop(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(_workers);
        for (unsigned w = 0; w < _workers; ++w)
            pool.emplace_back([this, w] { workerLoop(w); });
        for (std::thread &t : pool)
            t.join();
    }

    if (timeout_thread.joinable()) {
        {
            std::lock_guard<std::mutex> g(_timeoutMutex);
            _timeoutLoopExit = true;
        }
        _timeoutCv.notify_all();
        timeout_thread.join();
    }

    _stats.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - _startedAt)
            .count();
    if (_opts.progress) {
        printProgress();
        std::fprintf(_opts.progressStream, "\n");
        std::fflush(_opts.progressStream);
    }
    _jobs = nullptr;
    _sink = nullptr;
    return std::move(_ordered);
}

void
Runner::requestStop()
{
    _stop.store(true, std::memory_order_relaxed);
    // Reach every in-flight simulation through its cancel token.
    std::lock_guard<std::mutex> g(_timeoutMutex);
    for (TimeoutSlot &slot : _timeoutSlots) {
        if (slot.flag)
            slot.flag->store(true, std::memory_order_relaxed);
    }
}

bool
Runner::takeJob(unsigned self, std::size_t &index)
{
    {
        WorkerQueue &own = *_queues[self];
        std::lock_guard<std::mutex> g(own.mutex);
        if (!own.jobs.empty()) {
            index = own.jobs.front();
            own.jobs.pop_front();
            return true;
        }
    }
    for (unsigned step = 1; step < _workers; ++step) {
        WorkerQueue &victim = *_queues[(self + step) % _workers];
        std::lock_guard<std::mutex> g(victim.mutex);
        if (!victim.jobs.empty()) {
            index = victim.jobs.back();
            victim.jobs.pop_back();
            return true;
        }
    }
    return false;
}

void
Runner::workerLoop(unsigned self)
{
    std::size_t index = 0;
    while (takeJob(self, index))
        deliver(execute(self, (*_jobs)[index]));
}

void
Runner::armSlot(unsigned self, std::atomic<bool> *flag)
{
    {
        std::lock_guard<std::mutex> g(_timeoutMutex);
        _timeoutSlots[self].flag = flag;
        _timeoutSlots[self].deadline =
            std::chrono::steady_clock::now() +
            (_opts.jobTimeout.count() > 0 ? _opts.jobTimeout
                                          : std::chrono::hours(24));
        // Close the race with a concurrent requestStop(): it may
        // have swept the slots before this flag was registered.
        if (stopRequested())
            flag->store(true, std::memory_order_relaxed);
    }
    if (_opts.jobTimeout.count() > 0)
        _timeoutCv.notify_all();
}

void
Runner::disarmSlot(unsigned self)
{
    std::lock_guard<std::mutex> g(_timeoutMutex);
    _timeoutSlots[self].flag = nullptr;
}

JobResult
Runner::execute(unsigned self, const Job &job)
{
    JobResult r;
    r.job = job;

    std::vector<ConfigError> errors = job.config.validate();
    if (!errors.empty()) {
        // Checked here, single-threaded per job, because the engine
        // itself would fatal() -- a sweep must contain bad cells,
        // not die on them.
        r.status = JobStatus::Failed;
        r.error = joinErrors(errors);
        return r;
    }

    auto backoff = _opts.retryBackoff;
    for (unsigned attempt = 1; attempt <= _opts.maxAttempts;
         ++attempt) {
        if (stopRequested()) {
            r.status = JobStatus::Cancelled;
            r.error = "sweep cancelled";
            return r;
        }
        r.attempts = attempt;
        if (_opts.failInjector && _opts.failInjector(job, attempt)) {
            r.error = "injected failure";
        } else {
            // The attempt's cancel token: the simulation polls it at
            // fiber switches; the timeout watchdog and requestStop()
            // set it from outside.
            std::atomic<bool> cancel{false};
            armSlot(self, &cancel);
            try {
                Config cfg = job.config;
                cfg.run.cancel = &cancel;
                RunResult res = runExperiment(cfg);
                disarmSlot(self);
                if (cancel.load(std::memory_order_relaxed)) {
                    if (stopRequested()) {
                        r.status = JobStatus::Cancelled;
                        r.error = "sweep cancelled";
                    } else {
                        // Deterministic simulations do not get
                        // faster on retry; report and move on.
                        r.status = JobStatus::TimedOut;
                        r.error = "host timeout";
                    }
                    return r;
                }
                r.run = std::move(res);
                r.status = JobStatus::Ok;
                r.error.clear();
                return r;
            } catch (const std::exception &e) {
                disarmSlot(self);
                r.error = e.what();
            } catch (...) {
                disarmSlot(self);
                r.error = "unknown exception";
            }
        }
        if (attempt < _opts.maxAttempts) {
            std::this_thread::sleep_for(
                std::min(backoff, _opts.retryBackoffCap));
            backoff *= 2;
        }
    }
    r.status = JobStatus::Failed;
    return r;
}

void
Runner::deliver(JobResult &&result)
{
    std::lock_guard<std::mutex> g(_deliverMutex);
    _stats.count(result);
    _pending.emplace(result.job.id, std::move(result));
    while (!_pending.empty() && _pending.begin()->first == _nextId) {
        JobResult &front = _pending.begin()->second;
        if (_sink)
            _sink->onResult(front);
        if (_opts.collectResults)
            _ordered.push_back(std::move(front));
        _pending.erase(_pending.begin());
        ++_nextId;
    }
    if (_opts.progress)
        printProgress();
}

void
Runner::printProgress()
{
    std::uint64_t done = _stats.ok + _stats.failed +
                         _stats.timedOut + _stats.cancelled;
    double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - _startedAt)
            .count();
    double eta = 0;
    if (done > 0 && done < _stats.total) {
        eta = elapsed / static_cast<double>(done) *
              static_cast<double>(_stats.total - done);
    }
    std::fprintf(_opts.progressStream,
                 "\r[sweep] %llu/%llu done, %llu failed, %llu "
                 "retried, ETA %.0fs   ",
                 static_cast<unsigned long long>(done),
                 static_cast<unsigned long long>(_stats.total),
                 static_cast<unsigned long long>(_stats.failed +
                                                 _stats.timedOut),
                 static_cast<unsigned long long>(_stats.retries),
                 eta);
    std::fflush(_opts.progressStream);
}

void
Runner::timeoutLoop()
{
    std::unique_lock<std::mutex> lock(_timeoutMutex);
    while (!_timeoutLoopExit) {
        auto now = std::chrono::steady_clock::now();
        auto next = now + std::chrono::hours(24);
        for (TimeoutSlot &slot : _timeoutSlots) {
            if (!slot.flag)
                continue;
            if (slot.deadline <= now)
                slot.flag->store(true, std::memory_order_relaxed);
            else
                next = std::min(next, slot.deadline);
        }
        // Sleep to the earliest pending deadline; a worker arming a
        // new slot (or run() tearing down) notifies the condvar.
        _timeoutCv.wait_until(lock, next);
    }
}

} // namespace tmi::driver
