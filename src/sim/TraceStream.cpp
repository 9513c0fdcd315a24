//===- TraceStream.cpp - Streaming trace pipeline ------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/TraceStream.h"

#include "urcm/support/Telemetry.h"

#include <thread>

using namespace urcm;

URCM_STAT(NumTraceChunks, "trace.chunks", "Trace chunks streamed");
URCM_STAT(NumTraceEvents, "trace.events", "Trace events streamed");
URCM_STAT(NumProducerStalls, "trace.producer-stalls",
          "Producer blocked on a full chunk queue");
URCM_STAT(NumConsumerStalls, "trace.consumer-stalls",
          "Consumer blocked on an empty chunk queue");

namespace {

/// Pass-through sink interposed ahead of the stream when a producer-side
/// tap is requested: the tap sees each chunk on the simulating thread,
/// then the chunk flows downstream unchanged.
class TapSink : public TraceSink {
public:
  TapSink(TraceSink &Next,
          const std::function<void(const TraceEvent *, size_t)> &Tap)
      : Next(Next), Tap(Tap) {}

  std::vector<TraceEvent> chunk(std::vector<TraceEvent> Chunk) override {
    Tap(Chunk.data(), Chunk.size());
    return Next.chunk(std::move(Chunk));
  }

private:
  TraceSink &Next;
  const std::function<void(const TraceEvent *, size_t)> &Tap;
};

} // namespace

SimResult urcm::streamTrace(
    SimConfig Config,
    const std::function<SimResult(const SimConfig &)> &Produce,
    const std::function<void(const TraceEvent *, size_t)> &Consume,
    size_t QueueDepth, uint64_t *EventCount,
    const std::function<void(const TraceEvent *, size_t)> &ProducerTap) {
  return streamTrace(
      std::move(Config), Produce,
      ChunkConsumer([&](std::vector<TraceEvent> &Chunk) {
        Consume(Chunk.data(), Chunk.size());
      }),
      QueueDepth, EventCount, ProducerTap);
}

SimResult urcm::streamTrace(
    SimConfig Config,
    const std::function<SimResult(const SimConfig &)> &Produce,
    const ChunkConsumer &Consume, size_t QueueDepth, uint64_t *EventCount,
    const std::function<void(const TraceEvent *, size_t)> &ProducerTap) {
  StreamedTrace Stream(QueueDepth);
  TapSink Tap(Stream, ProducerTap);
  Config.Sink = ProducerTap ? static_cast<TraceSink *>(&Tap) : &Stream;
  Config.RecordTrace = false;

  SimResult Result;
  std::exception_ptr ProducerError;
  std::thread Producer([&] {
    if (telemetry::enabled())
      telemetry::setThreadName("trace-producer");
    try {
      Result = Produce(Config);
    } catch (...) {
      ProducerError = std::current_exception();
    }
    // Close even on failure so the consumer drains and unblocks.
    Stream.producerDone();
  });

  std::exception_ptr ConsumerError;
  std::vector<TraceEvent> Chunk;
  while (Stream.next(Chunk)) {
    if (ConsumerError)
      continue; // Keep draining so the producer never deadlocks.
    try {
      Consume(Chunk);
    } catch (...) {
      ConsumerError = std::current_exception();
    }
  }
  Producer.join();
  if (telemetry::enabled()) {
    NumTraceChunks.add(Stream.chunkCount());
    NumTraceEvents.add(Stream.eventCount());
    NumProducerStalls.add(Stream.producerStalls());
    NumConsumerStalls.add(Stream.consumerStalls());
  }
  if (EventCount)
    *EventCount = Stream.eventCount();
  if (ProducerError)
    std::rethrow_exception(ProducerError);
  if (ConsumerError)
    std::rethrow_exception(ConsumerError);
  return Result;
}
