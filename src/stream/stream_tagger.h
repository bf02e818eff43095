// Streaming document-level tagger: Feed()/Flush() over raw bytes.
//
// StreamTagger glues the incremental tokenizer (text/stream_tokenizer.h) to
// the compiled-plan batched inference path (Pipeline::TagCorpus) and,
// optionally, to the entity-consistency cache (entity_memory.h):
//
//   raw bytes --Feed()--> StreamTokenizer --> completed sentences
//     --> one TagCorpus call per Feed/Flush (plan-batched, pool-parallel)
//     --(doc_context: Apply + Observe per sentence, in order)--> emitted
//
// Latency contract (work-conserving, like the serve batcher): every sentence
// a Feed() completes is tagged and returned by that same Feed(); nothing
// waits for a batch to fill. Only a trailing partial sentence, which the
// tokenizer cannot close yet, waits for more bytes or for Flush().
//
// Determinism: emitted spans are a pure function of the concatenated byte
// stream. Chunk boundaries and batch grouping cannot change the output,
// because (a) the tokenizer is chunk-invariant by construction, (b)
// TagCorpus is bit-identical regardless of batch composition, and (c) the
// entity memory is applied strictly sequentially per sentence. With
// doc_context=false the output is bit-identical to calling
// Pipeline::TagCorpus on the same sentence split.
#ifndef DLNER_STREAM_STREAM_TAGGER_H_
#define DLNER_STREAM_STREAM_TAGGER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "stream/entity_memory.h"
#include "text/stream_tokenizer.h"

namespace dlner::stream {

struct StreamOptions {
  /// Document-level entity-consistency state: spans emitted earlier in a
  /// document bias the tagging of later exact surface repetitions.
  bool doc_context = false;
};

/// One tagged sentence emitted by the stream.
struct TaggedSentence {
  std::vector<std::string> tokens;
  std::vector<text::Span> spans;
};

class StreamTagger {
 public:
  /// `pipeline` is borrowed and must outlive the tagger.
  StreamTagger(const core::Pipeline* pipeline, const StreamOptions& opts = {});

  /// Consumes the next chunk of the document. Returns every sentence the
  /// chunk completed, tagged (possibly none; possibly several).
  std::vector<TaggedSentence> Feed(std::string_view chunk);

  /// Ends the document: tags the final partial sentence/token, if any.
  /// Document state (entity memory) is cleared, so the tagger is
  /// immediately ready for the next document.
  std::vector<TaggedSentence> Flush();

  /// True when doc-level state is active for this stream.
  bool doc_context() const { return opts_.doc_context; }

  /// Trace context id stamped (as a "ctx" annotation) onto the
  /// stream/feed|flush spans this tagger records, and inherited by the
  /// plan/batch spans under them — the same request-context mechanism the
  /// serve batcher uses, so streamed document traffic is attributable in a
  /// merged trace. 0 (default) leaves spans unannotated.
  void set_trace_context(std::uint64_t ctx) { trace_ctx_ = ctx; }
  std::uint64_t trace_context() const { return trace_ctx_; }

  /// The entity-consistency cache (inspection/tests).
  const EntityMemory& memory() const { return memory_; }

 private:
  // Tags every sentence the tokenizer has completed, in one TagCorpus call.
  std::vector<TaggedSentence> TagCompleted();

  const core::Pipeline* pipeline_;
  StreamOptions opts_;
  std::uint64_t trace_ctx_ = 0;

  text::StreamTokenizer tokenizer_;
  EntityMemory memory_;
};

}  // namespace dlner::stream

#endif  // DLNER_STREAM_STREAM_TAGGER_H_
