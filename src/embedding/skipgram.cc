#include "embedding/skipgram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "common/random.h"

namespace edgeshed::embedding {

namespace {

constexpr size_t kNegativeTableSize = 1 << 20;

/// Degree^power negative-sampling table (word2vec's unigram table).
std::vector<graph::NodeId> BuildNegativeTable(const graph::Graph& g,
                                              double power) {
  std::vector<graph::NodeId> table;
  table.reserve(kNegativeTableSize);
  double total = 0.0;
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    total += std::pow(static_cast<double>(g.Degree(u)), power);
  }
  if (total <= 0.0) return table;
  double cumulative = 0.0;
  size_t filled = 0;
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    cumulative += std::pow(static_cast<double>(g.Degree(u)), power);
    size_t limit = static_cast<size_t>(cumulative / total *
                                       static_cast<double>(kNegativeTableSize));
    for (; filled < limit && filled < kNegativeTableSize; ++filled) {
      table.push_back(u);
    }
  }
  while (table.size() < kNegativeTableSize && !table.empty()) {
    table.push_back(table.back());
  }
  return table;
}

float FastSigmoid(float x) {
  if (x > 6.0f) return 1.0f;
  if (x < -6.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

}  // namespace

NodeEmbeddings TrainSkipGram(const graph::Graph& g, const WalkCorpus& corpus,
                             const SkipGramOptions& options) {
  EDGESHED_CHECK_GT(options.dimensions, 0u);
  const uint64_t n = g.NumNodes();
  const uint32_t dim = options.dimensions;

  NodeEmbeddings embeddings;
  embeddings.dimensions = dim;
  embeddings.vectors.resize(n * dim);
  // Context (output) matrix, discarded after training.
  std::vector<float> context(n * dim, 0.0f);

  Rng init_rng(options.seed);
  for (float& value : embeddings.vectors) {
    value = (static_cast<float>(init_rng.UniformDouble()) - 0.5f) / dim;
  }

  const std::vector<graph::NodeId> negative_table =
      BuildNegativeTable(g, options.unigram_power);
  if (corpus.NumWalks() == 0 || negative_table.empty()) return embeddings;

  const uint64_t total_steps =
      static_cast<uint64_t>(options.epochs) * corpus.NumWalks();
  float* const input = embeddings.vectors.data();
  float* const output = context.data();

  for (uint32_t epoch = 0; epoch < options.epochs; ++epoch) {
    // Linear learning-rate decay across epochs (word2vec schedule).
    const float lr =
        options.initial_learning_rate *
        std::max(0.05f, 1.0f - static_cast<float>(epoch) /
                                   static_cast<float>(options.epochs));
    (void)total_steps;
    ParallelForEach(
        0, corpus.NumWalks(),
        [&](uint64_t walk_index) {
          Rng rng(options.seed ^ ((walk_index + 1) * 0x2545f4914f6cdd1dULL) ^
                  epoch);
          std::vector<float> grad(dim);
          const uint64_t begin = corpus.offsets[walk_index];
          const uint64_t end = corpus.offsets[walk_index + 1];
          for (uint64_t center_pos = begin; center_pos < end; ++center_pos) {
            const graph::NodeId center = corpus.tokens[center_pos];
            // Randomized effective window, as in word2vec.
            const uint64_t window =
                1 + rng.UniformU64(options.window);
            const uint64_t ctx_begin =
                center_pos >= begin + window ? center_pos - window : begin;
            const uint64_t ctx_end =
                std::min<uint64_t>(end, center_pos + window + 1);
            for (uint64_t ctx_pos = ctx_begin; ctx_pos < ctx_end; ++ctx_pos) {
              if (ctx_pos == center_pos) continue;
              const graph::NodeId ctx = corpus.tokens[ctx_pos];
              float* v_in = input + static_cast<size_t>(center) * dim;
              std::fill(grad.begin(), grad.end(), 0.0f);
              // One positive + k negative updates.
              for (uint32_t k = 0; k <= options.negative_samples; ++k) {
                graph::NodeId target;
                float label;
                if (k == 0) {
                  target = ctx;
                  label = 1.0f;
                } else {
                  target =
                      negative_table[rng.UniformIndex(negative_table.size())];
                  if (target == ctx) continue;
                  label = 0.0f;
                }
                float* v_out = output + static_cast<size_t>(target) * dim;
                float dot = 0.0f;
                for (uint32_t d = 0; d < dim; ++d) dot += v_in[d] * v_out[d];
                const float gradient = (label - FastSigmoid(dot)) * lr;
                for (uint32_t d = 0; d < dim; ++d) {
                  grad[d] += gradient * v_out[d];
                  v_out[d] += gradient * v_in[d];
                }
              }
              for (uint32_t d = 0; d < dim; ++d) v_in[d] += grad[d];
            }
          }
        },
        options.threads);
  }
  return embeddings;
}

float CosineSimilarity(const NodeEmbeddings& embeddings, graph::NodeId a,
                       graph::NodeId b) {
  const float* va = embeddings.Row(a);
  const float* vb = embeddings.Row(b);
  float dot = 0.0f;
  float na = 0.0f;
  float nb = 0.0f;
  for (uint32_t d = 0; d < embeddings.dimensions; ++d) {
    dot += va[d] * vb[d];
    na += va[d] * va[d];
    nb += vb[d] * vb[d];
  }
  const float denom = std::sqrt(na) * std::sqrt(nb);
  return denom > 0.0f ? dot / denom : 0.0f;
}

}  // namespace edgeshed::embedding
