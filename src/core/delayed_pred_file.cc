#include "core/delayed_pred_file.hh"

#include "util/logging.hh"

namespace pabp {

DelayedPredicateFile::DelayedPredicateFile(unsigned delay)
    : visDelay(delay), visible(numPredRegs, false),
      inFlight(numPredRegs, 0)
{
    visible[0] = true;
}

void
DelayedPredicateFile::saveState(StateSink &sink) const
{
    sink.writeBoolVector(visible);
    sink.writePodVector(inFlight);
    sink.writeU64(queue.size());
    queue.forEach([&](const Pending &p) {
        sink.writeU64(p.seq);
        sink.writeU8(p.reg);
        sink.writeBool(p.value);
        sink.writeBool(p.writes);
    });
}

Status
DelayedPredicateFile::loadState(StateSource &src)
{
    PABP_TRY(src.readBoolVector(visible, visible.size()));
    PABP_TRY(src.readPodVector(inFlight, inFlight.size()));
    std::uint64_t count = 0;
    PABP_TRY(src.readPod(count));
    // The queue never holds more than delay x 2 writes in practice;
    // bound it loosely so a corrupt count cannot balloon memory.
    if (count > (static_cast<std::uint64_t>(visDelay) + 1) * 1024)
        return Status(StatusCode::Corrupt,
                      "pending predicate-write queue count implausible");
    queue.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        Pending p{};
        PABP_TRY(src.readPod(p.seq));
        PABP_TRY(src.readPod(p.reg));
        PABP_TRY(src.readBool(p.value));
        PABP_TRY(src.readBool(p.writes));
        queue.push_back(p);
    }
    return Status();
}

} // namespace pabp
