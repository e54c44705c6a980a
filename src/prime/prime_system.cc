#include "prime/prime_system.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>

#include "common/logging.hh"
#include "common/telemetry/trace_session.hh"
#include "common/thread_pool.hh"
#include "nn/network.hh"

namespace prime::core {

namespace {

/** Whether every value of @p values is finite. */
bool
allFinite(std::span<const double> values)
{
    return std::all_of(values.begin(), values.end(),
                       [](double v) { return std::isfinite(v); });
}

/**
 * Weight codes of one tile, row-major (tile_rows x tile_cols): the
 * rows [row_base, row_base + tile_rows) of the columns [col_base,
 * col_base + tile_cols) of a layer's @p rows-row weights, stored column
 * by column (MVM row r of column c at weights[c * rows + r]).  Each
 * column's run is contiguous, so a block of columns is quantized into
 * a column-major buffer and transposed from there, a cache line of
 * codes per row.
 */
std::vector<int>
tileCodes(std::span<const double> weights, int rows, int row_base,
          int tile_rows, int col_base, int tile_cols, int frac, int bits)
{
    constexpr std::size_t kBlock = 16;
    const std::size_t n_rows = static_cast<std::size_t>(tile_rows);
    const std::size_t n_cols = static_cast<std::size_t>(tile_cols);
    std::vector<int> codes(n_rows * n_cols);
    std::vector<int> block(kBlock * n_rows);
    for (std::size_t c0 = 0; c0 < n_cols; c0 += kBlock) {
        const std::size_t width = std::min(kBlock, n_cols - c0);
        for (std::size_t k = 0; k < width; ++k)
            quantizeWeightCodes(
                weights.subspan((static_cast<std::size_t>(col_base) + c0 +
                                 k) * static_cast<std::size_t>(rows) +
                                    static_cast<std::size_t>(row_base),
                                n_rows),
                frac, bits,
                std::span<int>(block).subspan(k * n_rows, n_rows));
        for (std::size_t r = 0; r < n_rows; ++r)
            for (std::size_t k = 0; k < width; ++k)
                codes[r * n_cols + c0 + k] = block[k * n_rows + r];
    }
    return codes;
}

/**
 * out[v * cols + col_base + c] += codes[v * tile_cols + c] * 2^exp for
 * every vector v of a tile's codes, each code first cast to Code (the
 * width it crossed the Buffer at).  One exact power-of-two scale serves
 * the tile (normalPow2), bit-identical to a per-element std::ldexp,
 * which remains the fallback when 2^exp is not a normal double.
 */
template <typename Code>
void
mergeTile(std::span<const std::int64_t> codes, int exp, int col_base,
          std::size_t tile_cols, std::size_t cols, std::span<double> out)
{
    auto merge = [&](auto scale) {
        for (std::size_t v = 0, i = 0; i < codes.size(); ++v) {
            double *col = out.data() + v * cols + col_base;
            for (std::size_t c = 0; c < tile_cols; ++c, ++i)
                col[c] += scale(
                    static_cast<double>(static_cast<Code>(codes[i])));
        }
    };
    if (const double pow2 = normalPow2(exp); pow2 != 0.0)
        merge([pow2](double x) { return x * pow2; });
    else
        merge([exp](double x) { return std::ldexp(x, exp); });
}

/**
 * Gather every window of conv layer @p s over its input codes @p in
 * into @p out (im2col), row-tile-major as tiledMvm takes it: the rows
 * [r0, r0 + n) of row tile r0 / tile_rows, window w, at M * r0 + w * n.
 * Row r = (ic, kh, kw) of the windows along one output row reads one
 * input row at a sliding offset, zero where the window hangs over the
 * padding.
 */
void
gatherWindows(const nn::LayerSpec &s, std::span<const std::uint8_t> in,
              std::size_t tile_rows, std::span<std::uint8_t> out)
{
    // Locals: a byte store may alias any field of s.
    const int kernel = s.kernel, pad = s.padding;
    const int in_h = s.inH, in_w = s.inW, out_h = s.outH, out_w = s.outW;
    const std::size_t field =
        static_cast<std::size_t>(s.inC) * kernel * kernel;
    const std::size_t windows = static_cast<std::size_t>(out_h) * out_w;
    PRIME_ASSERT(out.size() == windows * field, "gather of ", out.size(),
                 " for ", windows, " windows of ", field);
    for (std::size_t r0 = 0; r0 < field; r0 += tile_rows) {
        const std::size_t n = std::min(tile_rows, field - r0);
        for (std::size_t r = r0; r < r0 + n; ++r) {
            const int ic = static_cast<int>(r) / (kernel * kernel);
            const int kh = static_cast<int>(r) % (kernel * kernel) / kernel;
            const int kw = static_cast<int>(r) % kernel;
            // Output columns whose window column kw lies inside the
            // input: ix = ox + kw - pad in [0, in_w).
            const int lo = std::clamp(pad - kw, 0, out_w);
            const int hi = std::clamp(in_w + pad - kw, lo, out_w);
            std::uint8_t *first = out.data() + windows * r0 + (r - r0);
            for (int oy = 0; oy < out_h; ++oy) {
                std::uint8_t *dst =
                    first + static_cast<std::size_t>(oy) * out_w * n;
                const int iy = oy + kh - pad;
                const bool inside = iy >= 0 && iy < in_h;
                const int copy_lo = inside ? lo : out_w;
                const int copy_hi = inside ? hi : out_w;
                for (int ox = 0; ox < copy_lo; ++ox)
                    dst[static_cast<std::size_t>(ox) * n] = 0;
                if (inside) {
                    const std::uint8_t *row =
                        in.data() + (static_cast<std::size_t>(ic) * in_h +
                                     static_cast<std::size_t>(iy)) *
                                        in_w;
                    for (int ox = lo; ox < hi; ++ox)
                        dst[static_cast<std::size_t>(ox) * n] =
                            row[ox + kw - pad];
                }
                for (int ox = copy_hi; ox < out_w; ++ox)
                    dst[static_cast<std::size_t>(ox) * n] = 0;
            }
        }
    }
}

} // namespace

PrimeSystem::BankUnit::BankUnit(const nvmodel::TechParams &tech,
                                memory::MainMemory *mem, StatGroup *stats)
    : ff([&] {
          std::vector<FfSubarray> v;
          v.reserve(static_cast<std::size_t>(
              tech.geometry.ffSubarraysPerBank));
          for (int i = 0; i < tech.geometry.ffSubarraysPerBank; ++i)
              v.emplace_back(tech);
          return v;
      }()),
      buffer(tech, stats), controller(tech, mem, &ff, &buffer, stats)
{
}

PrimeSystem::PrimeSystem(const nvmodel::TechParams &tech,
                         const mapping::MapperOptions &mapper_options)
    : tech_(tech), mapperOptions_(mapper_options), mem_(tech)
{
    // Bank 0 always exists (small/medium NNs execute entirely in it);
    // programWeight instantiates further banks as the plan needs them.
    ensureBank(0);
    // Run-time I/O staging windows, clear of the migration region that
    // grows up from address 0 (derived from the configured geometry so
    // tiny test geometries stay within decode range).
    const std::uint64_t capacity = mem_.mapper().capacityBytes();
    inputStageAddr_ = capacity / 2;
    outputStageAddr_ = capacity / 2 + capacity / 4;
}

void
PrimeSystem::ensureBank(int bank)
{
    PRIME_ASSERT(bank >= 0, "bank ", bank);
    while (static_cast<int>(banks_.size()) <= bank) {
        const int index = static_cast<int>(banks_.size());
        StatGroup *stats =
            index == 0 ? &stats_
                       : &stats_.child("bank" + std::to_string(index));
        banks_.push_back(
            std::make_unique<BankUnit>(tech_, &mem_, stats));
        banks_.back()->controller.setAnalogCompute(analog_,
                                                   bankNoiseSeed(index));
    }
}

PrimeSystem::BankUnit &
PrimeSystem::unit(int bank)
{
    PRIME_ASSERT(bank >= 0 && bank < static_cast<int>(banks_.size()),
                 "bank ", bank, " of ", banks_.size());
    return *banks_[static_cast<std::size_t>(bank)];
}

PrimeController &
PrimeSystem::controller(int bank)
{
    return unit(bank).controller;
}

BufferSubarray &
PrimeSystem::buffer(int bank)
{
    return unit(bank).buffer;
}

void
PrimeSystem::setAnalogCompute(bool analog, Rng *noise_rng)
{
    analog_ = analog;
    analogNoiseSeed_.reset();
    if (noise_rng)
        analogNoiseSeed_ = noise_rng->engine()();
    for (std::size_t b = 0; b < banks_.size(); ++b)
        banks_[b]->controller.setAnalogCompute(
            analog, bankNoiseSeed(static_cast<int>(b)));
}

std::optional<std::uint64_t>
PrimeSystem::bankNoiseSeed(int bank) const
{
    if (!analogNoiseSeed_)
        return std::nullopt;
    return streamSeed(*analogNoiseSeed_, static_cast<std::uint64_t>(bank));
}

const mapping::MappingPlan &
PrimeSystem::mapTopology(const nn::Topology &topology)
{
    // Phase spans mirror the Figure 7 API steps (the Fig. 9 categories).
    PRIME_SPAN(telemetry::globalTrace(), "phase.map_topology", "phase");
    mapping::Mapper mapper(tech_.geometry, mapperOptions_);
    topology_ = topology;
    plan_ = mapper.map(topology);
    programs_.clear();
    configCommands_.clear();
    stages_.clear();
    programmed_ = false;
    configured_ = false;
    return *plan_;
}

const mapping::MappingPlan &
PrimeSystem::plan() const
{
    PRIME_ASSERT(plan_.has_value(), "mapTopology not called");
    return *plan_;
}

const nn::Topology &
PrimeSystem::topology() const
{
    PRIME_ASSERT(topology_.has_value(), "mapTopology not called");
    return *topology_;
}

int
PrimeSystem::matInBank(const mapping::MatTile &tile) const
{
    return tile.subarray * tech_.geometry.matsPerSubarray + tile.mat;
}

int
PrimeSystem::matsPerBank() const
{
    return tech_.geometry.ffSubarraysPerBank *
           tech_.geometry.matsPerSubarray;
}

void
PrimeSystem::buildStages()
{
    stages_ = plan_->pipelineStages(topology_->layers.size());
    // Concurrent stages stage their Fetch/Commit traffic through
    // disjoint slices of the input/output windows; stage 0 keeps the
    // base addresses.
    const std::uint64_t capacity = mem_.mapper().capacityBytes();
    const std::uint64_t stride =
        (capacity / 4 / stages_.size()) & ~std::uint64_t{63};
    PRIME_ASSERT(stride >= 64,
                 "staging stride ", stride, " too small for ",
                 stages_.size(), " stages");
    while (stageContexts_.size() < stages_.size()) {
        const std::size_t s = stageContexts_.size();
        ExecContext &ctx =
            *stageContexts_.emplace_back(std::make_unique<ExecContext>());
        ctx.stats = s == 0 ? &stats_
                           : &stats_.child("stage" + std::to_string(s));
        // Pre-resolved here, single-threaded, so the stage workers
        // never do a creating map lookup on the tile path.
        ctx.tiledMvms = &ctx.stats->get("run.tiled_mvms");
        ctx.spanName = "pipe.stage" + std::to_string(s);
    }
    for (std::size_t s = 0; s < stageContexts_.size(); ++s) {
        ExecContext &ctx = *stageContexts_[s];
        ctx.codes.clear();
        ctx.windows.clear();
        ctx.mvm.clear();
        ctx.matInputs.clear();
        ctx.transfers.clear();
        ctx.log.clear();
        ctx.imageEnds.clear();
        ctx.transfersPerImage = 0;
        if (s >= stages_.size())
            continue;
        ctx.inputStageAddr = inputStageAddr_ + s * stride;
        ctx.outputStageAddr = outputStageAddr_ + s * stride;
        // Size the buffers and record the bursts of the stage's own
        // layers.
        ctx.transfers.resize(transferCount_);
        for (std::size_t p = stages_[s].firstWeighted;
             p < stages_[s].endWeighted; ++p) {
            const LayerProgram &lp = programs_[p];
            const mapping::WeightedLayer &info = lp.mapping->info;
            ctx.codes.resize(std::max<std::size_t>(ctx.codes.size(),
                                                   lp.spec.inputCount()));
            if (lp.spec.kind == nn::LayerKind::Convolution) {
                const std::size_t vectors = layerVectors(lp.spec);
                ctx.windows.resize(std::max(
                    ctx.windows.size(),
                    vectors * static_cast<std::size_t>(info.rows)));
                ctx.mvm.resize(std::max(
                    ctx.mvm.size(),
                    vectors * static_cast<std::size_t>(info.cols)));
            }
            for (const TapeBank &bank : lp.tape.banks) {
                ctx.matInputs.resize(
                    std::max(ctx.matInputs.size(), bank.mats.size()));
                ctx.transfers[bank.fetchTransfer] = mem_.recordTransfer(
                    bank.fetch.src + ctx.inputStageAddr, bank.fetch.bytes,
                    false);
                ctx.transfers[bank.commitTransfer] = mem_.recordTransfer(
                    bank.commit.dst + ctx.outputStageAddr,
                    bank.commit.bytes, true);
            }
            // One Fetch and one Commit per bank per tiled MVM: once per
            // image for a FC layer, once per output pixel for a conv.
            ctx.transfersPerImage +=
                lp.tape.mvmLog.size() * layerVectors(lp.spec);
        }
        // run() logs one image per stage.
        ctx.log.reserve(ctx.transfersPerImage);
        ctx.imageEnds.reserve(1);
    }
    inferences_ = &stats_.get("run.inferences");
}

void
PrimeSystem::replay()
{
    PRIME_SPAN(telemetry::globalTrace(), "mem.replay", "memory");
    const std::size_t n_stages = stages_.size();
    std::size_t images = 0;
    for (std::size_t s = 0; s < n_stages; ++s)
        images = std::max(images, stageContexts_[s]->imageEnds.size());
    // Step t runs stage s on image t - s, stages in order: the modeled
    // schedule of a pipeline that advances one stage per step.  A
    // context that logged fewer images (a lone runStage) skips the
    // steps it has none for.
    for (std::size_t t = 0; t + 1 < images + n_stages; ++t) {
        for (std::size_t s = 0; s < n_stages && s <= t; ++s) {
            const ExecContext &ctx = *stageContexts_[s];
            const std::size_t image = t - s;
            if (image >= ctx.imageEnds.size())
                continue;
            const std::size_t begin =
                image == 0 ? 0 : ctx.imageEnds[image - 1];
            for (std::size_t k = begin; k < ctx.imageEnds[image]; ++k)
                mem_.schedule(ctx.transfers[ctx.log[k]]);
        }
    }
    for (std::size_t s = 0; s < n_stages; ++s) {
        stageContexts_[s]->log.clear();
        stageContexts_[s]->imageEnds.clear();
    }
}

PrimeSystem::ExecContext &
PrimeSystem::stageContext(std::size_t stage)
{
    PRIME_ASSERT(stage < stages_.size(),
                 "stage ", stage, " of ", stages_.size());
    return *stageContexts_[stage];
}

void
PrimeSystem::programWeight(const nn::Network &trained, Rng *rng)
{
    PRIME_SPAN(telemetry::globalTrace(), "phase.program_weight", "phase");
    PRIME_ASSERT(plan_.has_value(), "mapTopology must precede");
    PRIME_FATAL_IF(topology_->layers.size() != trained.layerCount(),
                   "trained network (", trained.layerCount(),
                   " layers) does not match the mapped topology (",
                   topology_->layers.size(), " layers)");
    for (const mapping::LayerMapping &m : plan_->layers) {
        const nn::Layer &layer =
            trained.layer(static_cast<std::size_t>(m.info.layerIndex));
        const std::vector<double> *w = layer.weights();
        const std::vector<double> *b = layer.bias();
        PRIME_ASSERT(w && b, "weighted layer without parameters");
        PRIME_FATAL_IF(w->size() != static_cast<std::size_t>(m.info.rows) *
                                        static_cast<std::size_t>(m.info.cols),
                       "layer ", m.info.layerIndex, " has ", w->size(),
                       " weights; the mapped topology needs ", m.info.rows,
                       " x ", m.info.cols);
        // A NaN or infinity has no fixed-point code.
        PRIME_FATAL_IF(!allFinite(*w) || !allFinite(*b), "layer ",
                       m.info.layerIndex,
                       " has a non-finite weight or bias");
    }

    programs_.clear();
    configCommands_.clear();
    transferCount_ = 0;

    // Buffer-local layout of the run-time data flow: inputs stage in the
    // low half, output slots in the high half.  Derived from the
    // geometry so small test configurations (one mat per subarray) stay
    // in range.
    const nvmodel::Geometry &g = tech_.geometry;
    const std::size_t buffer_bytes = static_cast<std::size_t>(g.matRows) *
                                     g.matCols * g.arraysPerFfMat / 8 *
                                     g.matsPerSubarray;
    const std::uint64_t buf_in = 0;
    const std::uint64_t buf_out = buffer_bytes / 2;
    const std::uint32_t slot_bytes =
        2 * static_cast<std::uint32_t>(g.matCols);

    // Phase 1 (sequential): choose each layer's weight format, place
    // every replica-0 tile, and lower the layer's data flow into its
    // tape.  The tiles are quantized and the mats programmed in phase 2.
    struct TileJob
    {
        const mapping::MatTile *tile = nullptr;
        const mapping::LayerMapping *mapping = nullptr;
        /** The layer's weights, w[c * rows + r] for MVM row r, column
         *  c, and their fraction length. */
        std::span<const double> weights;
        int weightFrac = 0;
        int bank = 0;
        /** Mat index within the bank (controller addressing). */
        int mat = 0;
        std::vector<std::uint8_t> migrated;
    };
    std::vector<TileJob> jobs;
    for (const mapping::LayerMapping &m : plan_->layers) {
        LayerProgram lp;
        lp.mapping = &m;
        lp.spec = topology_->layers[static_cast<std::size_t>(
            m.info.layerIndex)];

        const nn::Layer &layer =
            trained.layer(static_cast<std::size_t>(m.info.layerIndex));
        const std::vector<double> *w = layer.weights();
        const std::vector<double> *b = layer.bias();
        const int rows = m.info.rows;

        // Per-layer dynamic fixed point for the synaptic weights
        // (Courbariaux-style ~1% clipping for a finer step).
        DfxFormat fmt = DfxFormat::choose(*w, tech_.weightBits, 0.01);
        lp.weightFrac = fmt.fracLength;
        lp.bias = *b;
        dfxRoundVector(lp.bias, tech_.weightBits);

        PRIME_ASSERT(static_cast<std::uint64_t>(rows) <= buf_out,
                     "input codes overflow the buffer input window: ",
                     rows, " > ", buf_out);

        // Lower each replica-0 tile into a Load and a Store on its
        // bank's tape entry (the tile's output slot is its ordinal
        // among the layer's tiles in that bank).
        for (const mapping::MatTile &t : m.tiles) {
            if (t.replica != 0)
                continue;
            TileJob job;
            job.tile = &t;
            job.mapping = &m;
            job.weights = *w;
            job.weightFrac = fmt.fracLength;

            ensureBank(t.bank);
            job.bank = t.bank;
            job.mat = matInBank(t);
            BankUnit &u = unit(t.bank);
            auto bank = std::find_if(
                lp.tape.banks.begin(), lp.tape.banks.end(),
                [&](const TapeBank &tb) {
                    return tb.controller == &u.controller;
                });
            if (bank == lp.tape.banks.end()) {
                lp.tape.banks.emplace_back().controller = &u.controller;
                bank = std::prev(lp.tape.banks.end());
            }
            const std::uint64_t ff_addr =
                static_cast<std::uint64_t>(job.mat) *
                PrimeController::kFfMatStride;
            using mapping::Command;
            using mapping::CommandOp;
            TapeTile tile;
            tile.controller = &u.controller;
            tile.buffer = &u.buffer;
            tile.mat = job.mat;
            tile.rowBase = t.rowTile * g.matRows;
            tile.rows = t.rowsUsed;
            tile.colBase = t.colTile * g.matCols;
            tile.cols = t.colsUsed;
            tile.load = Command{CommandOp::Load, 0, 0,
                                buf_in + static_cast<std::uint64_t>(
                                             tile.rowBase),
                                ff_addr,
                                static_cast<std::uint32_t>(t.rowsUsed)};
            tile.store = Command{
                CommandOp::Store, 0, 0, ff_addr,
                buf_out + bank->mats.size() * slot_bytes,
                static_cast<std::uint32_t>(2 * t.colsUsed)};
            tile.peakSlot = jobs.size();
            bank->mats.push_back(job.mat);
            bank->tiles.push_back(lp.tape.tiles.size());
            lp.tape.rowTiled = lp.tape.rowTiled || tile.rowBase > 0;
            lp.tape.tiles.push_back(tile);
            jobs.push_back(std::move(job));
        }
        // Per bank: Fetch the whole input vector, Commit the bank's
        // output slots back-to-back into the output window.
        std::uint64_t commit_offset = 0;
        for (TapeBank &tb : lp.tape.banks) {
            const std::uint32_t bank_bytes =
                static_cast<std::uint32_t>(tb.mats.size()) * slot_bytes;
            tb.fetch = mapping::Command{mapping::CommandOp::Fetch, 0, 0, 0,
                                        buf_in,
                                        static_cast<std::uint32_t>(rows)};
            tb.commit = mapping::Command{mapping::CommandOp::Commit, 0, 0,
                                         buf_out, commit_offset,
                                         bank_bytes};
            tb.fetchTransfer = transferCount_++;
            tb.commitTransfer = transferCount_++;
            commit_offset += bank_bytes;
        }
        for (const TapeBank &tb : lp.tape.banks)
            lp.tape.mvmLog.push_back(tb.fetchTransfer);
        for (const TapeBank &tb : lp.tape.banks)
            lp.tape.mvmLog.push_back(tb.commitTransfer);
        programs_.push_back(std::move(lp));
    }

    // The command's mat address is system-global (bank * matsPerBank +
    // local mat); configDatapath routes it to the owning bank's
    // controller.  Bank 0 keeps the plain local index, so single-bank
    // command streams are unchanged.  The same address keys the mat's
    // programming-variation stream.
    auto mat_addr = [this](const TileJob &job) {
        return static_cast<std::uint32_t>(job.bank * matsPerBank() +
                                          job.mat);
    };

    // Phase 2 (parallel): quantize every tile and run morphing steps
    // 1+2 on every mat at once -- hand over the resident data, program
    // the weights.  Each mat draws its variation from its own stream,
    // so the cells are the same at any thread count.
    const std::optional<std::uint64_t> seed =
        rng ? std::optional<std::uint64_t>(rng->engine()()) : std::nullopt;
    ThreadPool::global().parallelFor(jobs.size(), [&](std::size_t i) {
        TileJob &job = jobs[i];
        const mapping::MatTile &t = *job.tile;
        const std::vector<int> codes = tileCodes(
            job.weights, job.mapping->info.rows, t.rowTile * g.matRows,
            t.rowsUsed, t.colTile * g.matCols, t.colsUsed, job.weightFrac,
            tech_.weightBits);
        FfMat &mat = unit(job.bank).controller.mat(job.mat);
        std::optional<Rng> variation;
        if (seed)
            variation.emplace(streamSeed(*seed, mat_addr(job)));
        job.migrated =
            mat.morphToCompute(codes, t.rowsUsed, t.colsUsed,
                               variation ? &*variation : nullptr);
        // Static SA-window fallback: cover the worst-case dot product
        // of the programmed tile (calibrate() refines it).
        mat.engine().calibrateOutputShift();
    });

    // Phase 3 (sequential, global tile order): the migration is real
    // memory traffic -- timed write bursts through the bank/channel
    // model, replayed in one timing pass below, plus the functional
    // copy -- followed by the datapath configuration of the mat
    // (Table I, left half).
    std::vector<memory::Transfer> migrations;
    migrations.reserve(jobs.size());
    for (const TileJob &job : jobs) {
        migrations.push_back(mem_.recordTransfer(
            migrationAddr_, job.migrated.size(), true));
        mem_.writeData(migrationAddr_, job.migrated);
        migrationAddr_ += job.migrated.size();
        stats_.get("morph.migrated_bytes").add(
            static_cast<double>(job.migrated.size()));
        stats_.get("morph.mats_to_compute").increment();

        const std::uint32_t addr = mat_addr(job);
        using mapping::Command;
        using mapping::CommandOp;
        configCommands_.push_back(Command{
            CommandOp::SetMatFunction, addr,
            static_cast<std::uint8_t>(mapping::MatFunction::Compute), 0, 0,
            0});
        configCommands_.push_back(Command{
            CommandOp::BypassSigmoid, addr,
            static_cast<std::uint8_t>(job.mapping->info.sigmoidAfter ? 0
                                                                     : 1),
            0, 0, 0});
        configCommands_.push_back(
            Command{CommandOp::BypassSa, addr, 0, 0, 0, 0});
        configCommands_.push_back(Command{
            CommandOp::InputSource, addr,
            static_cast<std::uint8_t>(mapping::InputSource::Buffer), 0, 0,
            0});
    }
    {
        PRIME_SPAN(telemetry::globalTrace(), "mem.replay", "memory");
        for (const memory::Transfer &t : migrations)
            mem_.schedule(t);
    }
    // The engines exist now: bind each tape tile to its mat's (jobs run
    // in global tile order, as the tapes do).
    std::size_t job_index = 0;
    for (LayerProgram &lp : programs_)
        for (TapeTile &tile : lp.tape.tiles) {
            const TileJob &job = jobs[job_index++];
            tile.engine = &tile.controller->mat(job.mat).engine();
        }
    buildStages();
    programmed_ = true;
}

void
PrimeSystem::configDatapath()
{
    PRIME_SPAN(telemetry::globalTrace(), "phase.config_datapath", "phase");
    PRIME_ASSERT(programmed_, "programWeight must precede");
    // Route every command to the controller of the bank its system-wide
    // mat address falls into (the controller sees the local index).
    const int mats_per_bank = matsPerBank();
    for (const mapping::Command &c : configCommands_) {
        mapping::Command local = c;
        const int bank = static_cast<int>(c.matAddr) / mats_per_bank;
        local.matAddr = c.matAddr % static_cast<std::uint32_t>(
                                        mats_per_bank);
        unit(bank).controller.execute(local);
    }
    configured_ = true;
}

std::size_t
PrimeSystem::layerVectors(const nn::LayerSpec &spec)
{
    return spec.kind == nn::LayerKind::Convolution
               ? static_cast<std::size_t>(spec.outH) *
                     static_cast<std::size_t>(spec.outW)
               : 1;
}

void
PrimeSystem::tiledMvm(const LayerProgram &lp,
                      std::span<const std::uint8_t> codes, int in_frac,
                      std::span<double> out, ExecContext &ctx)
{
    PRIME_SPAN(telemetry::globalTrace(), "run.tiled_mvm", "compute");
    const mapping::LayerMapping &m = *lp.mapping;
    const std::size_t rows = static_cast<std::size_t>(m.info.rows);
    const std::size_t cols = static_cast<std::size_t>(m.info.cols);
    const std::size_t vectors = codes.size() / rows;
    PRIME_ASSERT(vectors > 0 && codes.size() == vectors * rows,
                 "input codes ", codes.size(), " vs rows ", rows);
    PRIME_ASSERT(out.size() == vectors * cols,
                 "outputs ", out.size(), " vs cols ", cols);
    const LayerTape &tape = lp.tape;
    // Tile t's inputs: its rows of every vector (row-tile-major).
    auto tile_inputs = [&](const TapeTile &t) {
        return codes.subspan(vectors * static_cast<std::size_t>(t.rowBase),
                             vectors * static_cast<std::size_t>(t.rows));
    };

    if (!calibrating_) {
        // Input codes arrive from main memory: the CPU side stages them
        // in the context's input window, then every bank hosting tiles
        // of this layer Fetches them into its Buffer subarray (the
        // input broadcast over the internal bus).  Only the last
        // vector's data moves (controller.hh): it leaves every byte
        // the earlier ones would, in staging, Buffer, latches and
        // registers, so their commands are counted below instead.
        if (vectors == 1 || !tape.rowTiled) {
            mem_.writeData(ctx.inputStageAddr, codes.last(rows));
        } else {
            for (const TapeTile &tile : tape.tiles)
                if (tile.colBase == 0)
                    mem_.writeData(
                        ctx.inputStageAddr +
                            static_cast<std::uint64_t>(tile.rowBase),
                        tile_inputs(tile).last(
                            static_cast<std::size_t>(tile.rows)));
        }
        for (const TapeBank &bank : tape.banks) {
            mapping::Command fetch = bank.fetch;
            fetch.src += ctx.inputStageAddr;
            bank.controller->execute(fetch);
        }
        // Load, compute, store (Table I data-flow commands).  All input
        // latches fill first, then each bank's tiles fire together
        // through its controller's fan-out, every mat over all vectors
        // -- the functional analog of the hardware evaluating every
        // replica/tile concurrently -- and the output registers drain
        // back to the per-bank buffers.
        for (const TapeTile &tile : tape.tiles)
            tile.controller->execute(tile.load);
        for (const TapeBank &bank : tape.banks) {
            for (std::size_t i = 0; i < bank.tiles.size(); ++i)
                ctx.matInputs[i] = tile_inputs(tape.tiles[bank.tiles[i]]);
            bank.controller->computeMats(
                bank.mats,
                std::span(ctx.matInputs).first(bank.tiles.size()));
        }
        for (const TapeTile &tile : tape.tiles)
            tile.controller->execute(tile.store);
        // Results leave through the same boundary: each bank Commits its
        // output slots back to memory, packed back-to-back in the
        // context's output window.
        for (const TapeBank &bank : tape.banks) {
            mapping::Command commit = bank.commit;
            commit.dst += ctx.outputStageAddr;
            bank.controller->execute(commit);
        }
        if (vectors > 1) {
            for (const TapeBank &bank : tape.banks) {
                bank.controller->count(bank.fetch, vectors - 1);
                bank.controller->count(bank.commit, vectors - 1);
            }
            for (const TapeTile &tile : tape.tiles) {
                tile.controller->count(tile.load, vectors - 1);
                tile.controller->count(tile.store, vectors - 1);
            }
        }
        // Every vector's bursts go into the context's log for the
        // timing pass, in vector order (capacity reserved: no
        // allocation).
        const std::size_t logged = ctx.log.size();
        ctx.log.resize(logged + vectors * tape.mvmLog.size());
        for (std::size_t v = 0; v < vectors; ++v)
            std::copy(tape.mvmLog.begin(), tape.mvmLog.end(),
                      ctx.log.begin() +
                          static_cast<std::ptrdiff_t>(
                              logged + v * tape.mvmLog.size()));
    }

    // Merge: partial target codes of row tiles accumulate per output
    // column; each tile's code scale depends on its own SA window.
    // Accumulation order is the global tile order regardless of bank
    // placement, keeping the floating-point sums bit-identical to the
    // single-bank path.  A tile's codes are the int16 its Store writes
    // to the Buffer, read back there for every vector (the accounted
    // read; the bytes come straight from the mat's codes).  Calibration
    // merges each tile's untruncated dot products instead (tracking
    // their peak), so downstream layers see exact activations.
    std::fill(out.begin(), out.end(), 0.0);
    for (const TapeTile &tile : tape.tiles) {
        const std::size_t tile_cols = static_cast<std::size_t>(tile.cols);
        if (calibrating_) {
            const std::span<std::int64_t> full(calibrationFull_.data(),
                                               vectors * tile_cols);
            tile.engine->mvmFull(tile_inputs(tile), full);
            std::int64_t &peak = calibrationPeaks_[tile.peakSlot];
            for (const std::int64_t v : full)
                peak = std::max(peak, std::abs(v));
            mergeTile<std::int64_t>(full, -in_frac - lp.weightFrac,
                                    tile.colBase, tile_cols, cols, out);
            continue;
        }
        tile.buffer->count(vectors * tile.store.bytes, 0);
        mergeTile<std::int16_t>(
            tile.controller->outputCodes(tile.mat),
            tile.engine->outputShift() - in_frac - lp.weightFrac,
            tile.colBase, tile_cols, cols, out);
    }
    if (!calibrating_)
        ctx.tiledMvms->increment(vectors);
}

nn::Tensor
PrimeSystem::runFc(const LayerProgram &lp, const nn::Tensor &x,
                   ExecContext &ctx)
{
    PRIME_SPAN(telemetry::globalTrace(), "layer.fc", "compute");
    PRIME_ASSERT(x.size() <= ctx.codes.size(), "fc input ", x.size());
    const std::span<std::uint8_t> codes =
        std::span(ctx.codes).first(x.size());
    const int in_frac =
        quantizeActivationCodes(x.flat(), tech_.inputBits, codes);
    nn::Tensor y({lp.spec.outFeatures});
    tiledMvm(lp, codes, in_frac, y.flat(), ctx);
    for (int o = 0; o < lp.spec.outFeatures; ++o)
        y[static_cast<std::size_t>(o)] +=
            lp.bias[static_cast<std::size_t>(o)];
    return y;
}

nn::Tensor
PrimeSystem::runConv(const LayerProgram &lp, const nn::Tensor &x,
                     ExecContext &ctx)
{
    PRIME_SPAN(telemetry::globalTrace(), "layer.conv", "compute");
    const nn::LayerSpec &s = lp.spec;
    PRIME_ASSERT(x.size() <= ctx.codes.size(), "conv input ", x.size());
    // Layer-wide activation scale, as the wordline drivers are
    // configured once per layer.
    const std::span<std::uint8_t> all_codes =
        std::span(ctx.codes).first(x.size());
    const int in_frac =
        quantizeActivationCodes(x.flat(), tech_.inputBits, all_codes);

    const std::size_t windows = layerVectors(s);
    const std::span<std::uint8_t> gathered = std::span(ctx.windows).first(
        windows * static_cast<std::size_t>(lp.mapping->info.rows));
    gatherWindows(s, all_codes,
                  static_cast<std::size_t>(tech_.geometry.matRows), gathered);

    const std::size_t cols = static_cast<std::size_t>(s.outC);
    const std::span<double> mvm = std::span(ctx.mvm).first(windows * cols);
    tiledMvm(lp, gathered, in_frac, mvm, ctx);
    nn::Tensor y({s.outC, s.outH, s.outW});
    double *out = y.flat().data();
    for (std::size_t oc = 0; oc < cols; ++oc)
        for (std::size_t w = 0; w < windows; ++w)
            *out++ = mvm[w * cols + oc] + lp.bias[oc];
    return y;
}

void
PrimeSystem::calibrate(const std::vector<nn::Sample> &samples)
{
    PRIME_SPAN(telemetry::globalTrace(), "phase.calibrate", "phase");
    PRIME_ASSERT(programmed_ && configured_,
                 "calibrate after programWeight + configDatapath");
    std::size_t tiles = 0;
    for (const LayerProgram &lp : programs_)
        tiles += lp.tape.tiles.size();
    calibrationPeaks_.assign(tiles, -1);
    std::size_t full = 0;
    for (const LayerProgram &lp : programs_)
        for (const TapeTile &tile : lp.tape.tiles)
            full = std::max(full, layerVectors(lp.spec) *
                                      static_cast<std::size_t>(tile.cols));
    calibrationFull_.resize(full);
    calibrating_ = true;
    for (const nn::Sample &s : samples)
        run(s.input);
    calibrating_ = false;
    for (const LayerProgram &lp : programs_) {
        for (const TapeTile &tile : lp.tape.tiles) {
            const std::int64_t peak = calibrationPeaks_[tile.peakSlot];
            if (peak < 0)
                continue;
            tile.engine->setOutputShift(reram::outputShiftForBound(
                std::max<std::int64_t>(2 * peak, 1), tech_.outputBits));
        }
    }
    stats_.get("run.calibrations").increment();
}

nn::Tensor
PrimeSystem::stageStep(nn::Tensor x, std::size_t stage)
{
    PRIME_SPAN(telemetry::globalTrace(), "pipeline.stage", "pipeline");
    ExecContext &ctx = stageContext(stage);
    const mapping::PipelineStage &ps = stages_[stage];
    std::size_t next_program = ps.firstWeighted;
    for (std::size_t li = ps.firstLayer; li < ps.endLayer; ++li) {
        const nn::LayerSpec &spec = topology_->layers[li];
        switch (spec.kind) {
          case nn::LayerKind::FullyConnected:
          case nn::LayerKind::Convolution: {
            PRIME_ASSERT(next_program < ps.endWeighted,
                         "program/topology mismatch");
            const LayerProgram &lp = programs_[next_program++];
            x = spec.kind == nn::LayerKind::FullyConnected
                    ? runFc(lp, x, ctx)
                    : runConv(lp, x, ctx);
            break;
          }
          case nn::LayerKind::MaxPool:
          case nn::LayerKind::MeanPool:
          case nn::LayerKind::Sigmoid:
          case nn::LayerKind::Relu:
          case nn::LayerKind::Flatten:
            x = nn::forwardUnweighted(spec, std::move(x));
            break;
        }
    }
    ctx.imageEnds.push_back(ctx.log.size());
    // calibrate() counts run.calibrations instead.
    if (stage + 1 == stages_.size() && !calibrating_)
        inferences_->increment();
    return x;
}

nn::Tensor
PrimeSystem::runStage(const nn::Tensor &x, std::size_t stage,
                      ExecContext &ctx)
{
    PRIME_ASSERT(&ctx == &stageContext(stage),
                 "runStage of stage ", stage, " in another context");
    nn::Tensor y = stageStep(x, stage);
    replay();
    return y;
}

nn::Tensor
PrimeSystem::run(const nn::Tensor &input)
{
    PRIME_SPAN(telemetry::globalTrace(), "phase.run", "phase");
    PRIME_ASSERT(programmed_, "programWeight must precede run");
    PRIME_ASSERT(configured_, "configDatapath must precede run");
    nn::Tensor x = input;
    for (std::size_t s = 0; s < stages_.size(); ++s)
        x = stageStep(std::move(x), s);
    replay();
    return x;
}

std::vector<double>
PrimeSystem::postProc(const nn::Tensor &logits) const
{
    return nn::softmax(logits);
}

void
PrimeSystem::release()
{
    PRIME_SPAN(telemetry::globalTrace(), "phase.release", "phase");
    for (const std::unique_ptr<BankUnit> &b : banks_) {
        for (FfSubarray &sub : b->ff) {
            for (int i = 0; i < sub.matCount(); ++i) {
                if (sub.mat(i).mode() == FfMode::Computation) {
                    sub.mat(i).morphToMemory();
                    stats_.get("morph.mats_to_memory").increment();
                }
            }
        }
    }
    programmed_ = false;
    configured_ = false;
    programs_.clear();
}

std::size_t
PrimeSystem::availableFfMemoryBytes() const
{
    std::size_t bytes = 0;
    for (const std::unique_ptr<BankUnit> &b : banks_)
        for (const FfSubarray &sub : b->ff)
            bytes += sub.memoryModeBytes();
    return bytes;
}

sim::PlatformResult
PrimeSystem::estimatePerformance() const
{
    PRIME_ASSERT(plan_.has_value(), "mapTopology not called");
    sim::PrimeModel model(tech_);
    return model.evaluate(*topology_, *plan_);
}

Ns
PrimeSystem::configurationTime() const
{
    PRIME_ASSERT(plan_.has_value(), "mapTopology not called");
    sim::PrimeModel model(tech_);
    return model.configurationTime(*plan_);
}

PicoJoule
PrimeSystem::configurationEnergy() const
{
    PRIME_ASSERT(plan_.has_value(), "mapTopology not called");
    sim::PrimeModel model(tech_);
    return model.configurationEnergy(*plan_);
}

} // namespace prime::core
