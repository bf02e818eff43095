#include "stream/stream_tagger.h"

#include <cstddef>
#include <utility>

#include "obs/trace.h"

namespace dlner::stream {

StreamTagger::StreamTagger(const core::Pipeline* pipeline,
                           const StreamOptions& opts)
    : pipeline_(pipeline), opts_(opts) {}

std::vector<TaggedSentence> StreamTagger::Feed(std::string_view chunk) {
  obs::ScopedTraceContext trace_ctx(trace_ctx_);
  obs::ScopedSpan span("stream/feed");
  tokenizer_.Feed(chunk);
  return TagCompleted();
}

std::vector<TaggedSentence> StreamTagger::Flush() {
  obs::ScopedTraceContext trace_ctx(trace_ctx_);
  obs::ScopedSpan span("stream/flush");
  tokenizer_.Flush();
  std::vector<TaggedSentence> out = TagCompleted();
  memory_.Clear();
  return out;
}

std::vector<TaggedSentence> StreamTagger::TagCompleted() {
  std::vector<TaggedSentence> out;
  if (!tokenizer_.HasSentence()) return out;
  text::Corpus corpus;
  while (tokenizer_.HasSentence()) {
    text::Sentence s;
    s.tokens = tokenizer_.NextSentence();
    corpus.sentences.push_back(std::move(s));
  }
  std::vector<std::vector<text::Span>> spans = pipeline_->TagCorpus(corpus);

  // The entity memory runs strictly sentence-by-sentence (Apply reads only
  // state from PRIOR sentences, then Observe folds this one in), so results
  // do not depend on how sentences were grouped into batches — the
  // chunk-boundary invariance property survives doc_context=true.
  out.reserve(corpus.sentences.size());
  for (std::size_t i = 0; i < corpus.sentences.size(); ++i) {
    TaggedSentence tagged;
    tagged.tokens = std::move(corpus.sentences[i].tokens);
    tagged.spans = std::move(spans[i]);
    if (opts_.doc_context) {
      memory_.Apply(tagged.tokens, &tagged.spans);
      memory_.Observe(tagged.tokens, tagged.spans);
    }
    out.push_back(std::move(tagged));
  }
  return out;
}

}  // namespace dlner::stream
