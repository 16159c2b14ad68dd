#include "core/pgu.hh"

namespace pabp {

void
PredicateGlobalUpdate::saveState(StateSink &sink) const
{
    sink.writeU64(queue.size());
    queue.forEach([&](const Pending &p) {
        sink.writeU64(p.seq);
        sink.writeBool(p.bit);
    });
    sink.writeU64(inserted);
}

Status
PredicateGlobalUpdate::loadState(StateSource &src)
{
    std::uint64_t count = 0;
    PABP_TRY(src.readPod(count));
    if (count > (static_cast<std::uint64_t>(cfg.delay) + 1) * 1024)
        return Status(StatusCode::Corrupt,
                      "pending history-bit queue count implausible");
    queue.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        Pending p{};
        PABP_TRY(src.readPod(p.seq));
        PABP_TRY(src.readBool(p.bit));
        queue.push_back(p);
    }
    return src.readPod(inserted);
}

} // namespace pabp
