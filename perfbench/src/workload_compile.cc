/**
 * @file
 * compile_run: compile a generated memory-dense module of 512 loops,
 * four shipped example programs and a dense-scan plus pointer-chase
 * program with guard optimisation and the Auto path arbiter, then run
 * them on the bytecode engine with local memory below the heap. The
 * same requests run again compiled with every site on the paged plane
 * (the repository's Fastswap-style fault model for IR programs), and
 * every output is checked against an untransformed parseOnly run on
 * the reference engine with all memory local.
 */

#include <fstream>
#include <memory>
#include <sstream>

#include "bench.hh"
#include "core/system.hh"
#include "passes/guard_opt.hh"

namespace perfbench
{

namespace
{

/// Loops in the generated module; 256 -> 512 is where loop-chunking
/// and guard-hoist turn superlinear, which the benchmark must show.
constexpr int kLoops = 512;
constexpr std::int64_t kArrayElems = 16384; ///< 128 KB heap array
/// Calls of the generated main per round, with trip counts kTripStep,
/// 2 * kTripStep, ..., kCalls * kTripStep.
constexpr int kCalls = 8;
constexpr std::int64_t kTripStep = 256;
constexpr std::int64_t kMaxTrip = kCalls * kTripStep;
constexpr std::uint32_t kObjectBytes = 4096;
constexpr std::int64_t kObjectElems = kObjectBytes / 8;
/// Per-request latency SLO for goodput, in simulated cycles.
constexpr std::uint64_t kSloCycles = 500'000'000;

/// The shipped example programs, by name (pinned, so that adding an
/// example does not change this workload).
const char *const kExamples[] = {"sum_loop", "struct_fields",
                                 "invariant_counter", "evacuation_stress"};

/** One program with its run requests and memory sizing. */
struct Program
{
    std::string name;
    std::string text;
    std::vector<std::vector<std::int64_t>> calls; ///< main's arguments
    std::uint64_t localMemBytes = 0;
    std::uint64_t pagedLocalMemBytes = 0;
};

/**
 * @p kLoops sequential loops over one heap array, each reading,
 * transforming and writing back a seed-chosen window of the array whose
 * length is main's argument; a final loop sums the array, prints the
 * sum and returns it.
 */
std::string
generatedModule(std::uint64_t seed)
{
    tfm::Rng rng(seed);
    std::ostringstream os;
    os << "func @main(%n: i64) -> i64 {\n";
    os << "entry:\n  %a = call ptr @malloc(" << kArrayElems * 8
       << ")\n  br init\n";
    os << "init:\n"
          "  %z = phi i64 [ 0, entry ], [ %z2, init ]\n"
          "  %zp = gep %a, %z, 8\n"
          "  store %z, %zp\n"
          "  %z2 = add %z, 1\n"
          "  %zc = icmp.slt %z2, "
       << kArrayElems << "\n  condbr %zc, init, l0.pre\n";
    for (int l = 0; l < kLoops; l++) {
        const std::string id = "l" + std::to_string(l);
        const std::string next =
            l + 1 < kLoops ? "l" + std::to_string(l + 1) + ".pre" : "sum.pre";
        // Windows start on an object boundary, so the seed changes
        // which objects a loop touches but not how many.
        const std::int64_t offset =
            kObjectElems * static_cast<std::int64_t>(rng.below(
                               static_cast<std::uint64_t>(
                                   (kArrayElems - kMaxTrip) / kObjectElems)));
        const std::int64_t mul =
            3 + 2 * static_cast<std::int64_t>(rng.below(8));
        const std::int64_t add = static_cast<std::int64_t>(rng.below(1000));
        const std::int64_t mask = 255 + 256 * static_cast<std::int64_t>(
                                             rng.below(4));
        os << id << ".pre:\n  br " << id << ".head\n";
        os << id << ".head:\n";
        os << "  %" << id << ".i = phi i64 [ 0, " << id << ".pre ], [ %"
           << id << ".i2, " << id << ".head ]\n";
        os << "  %" << id << ".x = add %" << id << ".i, " << offset << "\n";
        os << "  %" << id << ".p = gep %a, %" << id << ".x, 8\n";
        os << "  %" << id << ".v = load i64, %" << id << ".p\n";
        os << "  %" << id << ".t0 = mul %" << id << ".v, " << mul << "\n";
        os << "  %" << id << ".t1 = add %" << id << ".t0, " << add << "\n";
        os << "  %" << id << ".t2 = xor %" << id << ".t1, %" << id
           << ".i\n";
        os << "  %" << id << ".t3 = and %" << id << ".t2, " << mask << "\n";
        os << "  %" << id << ".w = add %" << id << ".v, %" << id
           << ".t3\n";
        os << "  store %" << id << ".w, %" << id << ".p\n";
        os << "  %" << id << ".i2 = add %" << id << ".i, 1\n";
        os << "  %" << id << ".c = icmp.slt %" << id << ".i2, %n\n";
        os << "  condbr %" << id << ".c, " << id << ".head, " << next
           << "\n";
    }
    os << "sum.pre:\n  br sum\n";
    os << "sum:\n"
          "  %j = phi i64 [ 0, sum.pre ], [ %j2, sum ]\n"
          "  %s = phi i64 [ 0, sum.pre ], [ %s2, sum ]\n"
          "  %q = gep %a, %j, 8\n"
          "  %u = load i64, %q\n"
          "  %s2 = add %s, %u\n"
          "  %j2 = add %j, 1\n"
          "  %jc = icmp.slt %j2, "
       << kArrayElems << "\n  condbr %jc, sum, done\n";
    os << "done:\n"
          "  call void @print_i64(%s2)\n"
          "  call void @free(%a)\n"
          "  ret %s2\n}\n";
    return os.str();
}

/**
 * A dense strided scan of a 1 MB array (twice) plus a pointer chase
 * over a 2 MB pool whose next links leap 2693 nodes, as in the hybrid
 * data-plane bench. The seed picks only the chase length, within 5%:
 * the leap decides the chase's locality, and so most of this
 * workload's simulated time.
 */
std::string
hybridModule(std::uint64_t seed)
{
    tfm::Rng rng(seed);
    const std::uint64_t hops = 19500 + rng.below(1001);
    std::string text = R"(func @main() -> i64 {
entry:
  %a = call ptr @malloc(1048576)
  %pool = call ptr @malloc(2097152)
  br init
init:
  %i = phi i64 [ 0, entry ], [ %i2, init ]
  %d = mul %i, 2
  %p = gep %a, %d, 8
  store %i, %p
  %i2 = add %i, 1
  %c = icmp.slt %i2, 32768
  condbr %c, init, build
build:
  br buildloop
buildloop:
  %b = phi i64 [ 0, build ], [ %b2, buildloop ]
  %t = add %b, 2693
  %n = srem %t, 16384
  %nx = gep %pool, %n, 128
  %nxi = ptrtoint %nx to i64
  %slot = gep %pool, %b, 128
  store %nxi, %slot
  %b2 = add %b, 1
  %cb = icmp.slt %b2, 16384
  condbr %cb, buildloop, scan1
scan1:
  br sum1
sum1:
  %j = phi i64 [ 0, scan1 ], [ %j2, sum1 ]
  %s = phi i64 [ 0, scan1 ], [ %s2, sum1 ]
  %e = mul %j, 2
  %q = gep %a, %e, 8
  %v = load i64, %q
  %s2 = add %s, %v
  %j2 = add %j, 1
  %cj = icmp.slt %j2, 32768
  condbr %cj, sum1, scan2
scan2:
  br sum2
sum2:
  %k = phi i64 [ 0, scan2 ], [ %k2, sum2 ]
  %u = phi i64 [ %s2, scan2 ], [ %u2, sum2 ]
  %f = mul %k, 2
  %r = gep %a, %f, 8
  %w = load i64, %r
  %u2 = add %u, %w
  %k2 = add %k, 1
  %ck = icmp.slt %k2, 32768
  condbr %ck, sum2, chase
chase:
  br hop
hop:
  %h = phi i64 [ 0, chase ], [ %h2, hop ]
  %ptr = phi ptr [ %pool, chase ], [ %next, hop ]
  %addr = load i64, %ptr
  %next = inttoptr %addr to ptr
  %h2 = add %h, 1
  %ch = icmp.slt %h2, HOPS
  condbr %ch, hop, done
done:
  %total = add %u2, %h2
  ret %total
}
)";
    text.replace(text.find("HOPS"), 4, std::to_string(hops));
    return text;
}

std::vector<Program>
makePrograms(std::uint64_t seed, Outcome &out)
{
    std::vector<Program> programs;
    Program gen;
    gen.name = "generated";
    gen.text = generatedModule(subSeed(seed, 21));
    for (int c = 1; c <= kCalls; c++)
        gen.calls.push_back({c * kTripStep});
    gen.localMemBytes = kArrayElems * 8 / 4;
    gen.pagedLocalMemBytes = gen.localMemBytes;
    programs.push_back(gen);

    for (const char *name : kExamples) {
        Program ex;
        ex.name = name;
        std::ifstream in(std::string("examples/") + name + ".tir");
        std::stringstream text;
        text << in.rdbuf();
        ex.text = text.str();
        if (!in || ex.text.empty())
            out.fail(std::string("cannot read examples/") + name + ".tir");
        ex.calls.push_back({});
        ex.localMemBytes = 2 * kObjectBytes;
        ex.pagedLocalMemBytes = 2 * kObjectBytes;
        programs.push_back(ex);
    }

    Program hybrid;
    hybrid.name = "hybrid";
    hybrid.text = hybridModule(subSeed(seed, 23));
    hybrid.calls.push_back({});
    hybrid.localMemBytes = 1u << 20;
    hybrid.pagedLocalMemBytes = 320u * 4096;
    programs.push_back(hybrid);
    return programs;
}

tfm::SystemConfig
configFor(const Program &p, tfm::ArbiterMode mode)
{
    tfm::SystemConfig cfg;
    cfg.runtime.farHeapBytes = 16ull << 20;
    cfg.runtime.localMemBytes = p.localMemBytes;
    cfg.runtime.pagedLocalMemBytes = p.pagedLocalMemBytes;
    cfg.runtime.objectSizeBytes = kObjectBytes;
    cfg.passes.optimizeGuards = true;
    cfg.passes.arbiterMode = mode;
    cfg.engine = tfm::InterpEngine::Bytecode;
    return cfg;
}

/** What one request returned, for comparison with the reference. */
struct Answer
{
    bool trapped = false;
    std::int64_t value = 0;
    std::vector<std::int64_t> output;

    bool
    operator==(const Answer &o) const
    {
        return trapped == o.trapped && value == o.value && output == o.output;
    }
};

Answer
answerOf(const tfm::RunResult &r)
{
    return Answer{r.trapped, r.returnValue, r.output};
}

/** What the untransformed programs produce, request by request. */
struct Reference
{
    std::vector<Answer> answers;
    std::vector<std::uint64_t> instructions;
    std::uint64_t totalInstructions = 0;
};

/** Reference answers: parseOnly, reference engine, all memory local. */
Reference
referenceRun(const std::vector<Program> &programs, Outcome &out)
{
    Reference ref;
    for (const Program &p : programs) {
        tfm::SystemConfig cfg = configFor(p, tfm::ArbiterMode::Off);
        cfg.runtime.localMemBytes = cfg.runtime.farHeapBytes;
        cfg.runtime.pagedLocalMemBytes = 0;
        cfg.engine = tfm::InterpEngine::Reference;
        tfm::System system(cfg);
        tfm::CompileResult parsed = system.parseOnly(p.text);
        for (const auto &args : p.calls) {
            tfm::RunResult r;
            if (parsed.ok())
                r = system.run(*parsed.program, "main", args);
            else
                out.fail(p.name + ": parse error: " + parsed.error);
            if (r.trapped)
                out.fail(p.name + ": reference run trapped: " + r.trapMessage);
            ref.answers.push_back(answerOf(r));
            ref.instructions.push_back(r.instructionsExecuted);
            ref.totalInstructions += r.instructionsExecuted;
        }
    }
    return ref;
}

/** One data plane's compile and run of every program. */
struct Pass
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::vector<std::uint64_t> latency; ///< per request, simulated cycles
    std::vector<Answer> answers;
    tfm::StatSet before, after;
    double setupSeconds = 0.0; ///< System construction
    double parseSeconds = 0.0;
    double compileSeconds = 0.0;
    double runSeconds = 0.0;
    double engineSeconds = 0.0;
    std::vector<double> rates; ///< host insts/s of each generated call
    std::map<std::string, double> passSeconds;
    std::uint64_t instsBefore = 0, instsAfter = 0;
    std::uint64_t staticGuards = 0;
    std::uint64_t pagedSites = 0;
    std::uint64_t inlineGuardHits = 0;
};

Pass
runPlane(const std::vector<Program> &programs, tfm::ArbiterMode mode,
         SpanTrace &trace, std::uint64_t group, Outcome &out)
{
    Pass pass;
    for (const Program &p : programs) {
        tfm::SystemConfig cfg = configFor(p, mode);
        double last = trace.clock();
        cfg.passObserver = [&](const std::string &name,
                               const tfm::ir::Module &) {
            const double now = trace.clock();
            pass.passSeconds[name] += now - last;
            trace.addChild("passes", name, group, last, now);
            last = now;
        };
        const double building = hostNow();
        std::unique_ptr<tfm::System> owned;
        {
            SpanTrace::Scope span(trace, "core", "system", group);
            owned = std::make_unique<tfm::System>(cfg);
        }
        tfm::System &system = *owned;
        pass.setupSeconds += hostNow() - building;
        {
            SpanTrace::Scope span(trace, "ir", "parse", group);
            const double t0 = hostNow();
            const tfm::CompileResult parsed = system.parseOnly(p.text);
            pass.parseSeconds += hostNow() - t0;
            if (!parsed.ok())
                out.fail(p.name + ": parse error: " + parsed.error);
        }
        tfm::CompileResult compiled;
        {
            SpanTrace::Scope span(trace, "core", "compile", group);
            const double t0 = hostNow();
            last = trace.clock();
            compiled = system.compile(p.text);
            pass.compileSeconds += hostNow() - t0;
        }
        if (!compiled.ok()) {
            out.fail(p.name + ": compile error: " + compiled.error);
            pass.answers.resize(pass.answers.size() + p.calls.size());
            continue;
        }
        const tfm::PipelineReport &report = compiled.program->pipelineReport();
        pass.instsBefore += report.instructionsBefore;
        pass.instsAfter += report.instructionsAfter;
        pass.staticGuards +=
            tfm::countStaticGuards(compiled.program->ir()).guards;
        pass.pagedSites += system.arbiterReport().pagedSites;

        const tfm::StatSet before = system.stats();
        for (const auto &args : p.calls) {
            SpanTrace::Scope span(trace, "core", "run", group);
            const std::uint64_t c0 = system.cycles();
            const double t0 = hostNow();
            const tfm::RunResult r =
                system.run(*compiled.program, "main", args);
            const double t1 = hostNow();
            trace.addChild("interp", "execute", group,
                           trace.clock() - r.wallSeconds, trace.clock());
            pass.runSeconds += t1 - t0;
            if (&p == &programs.front()) {
                pass.rates.push_back(
                    static_cast<double>(r.instructionsExecuted) / (t1 - t0));
            }
            pass.engineSeconds += r.wallSeconds;
            pass.instructions += r.instructionsExecuted;
            pass.inlineGuardHits += r.guardFastHits;
            pass.latency.push_back(system.cycles() - c0);
            pass.cycles += system.cycles() - c0;
            pass.answers.push_back(answerOf(r));
            out.attempted++;
        }
        pass.before.merge(before);
        pass.after.merge(system.stats());
    }
    return pass;
}

} // anonymous namespace

Outcome
runCompileRun(const Options &opt, SpanTrace &trace)
{
    Outcome out;
    Rounds rounds(opt.seconds);
    Fingerprint fingerprint;
    std::vector<double> setup, compile, parse;
    HostRate host;
    std::vector<double> runPrep, instsPerSec;
    std::map<std::string, std::vector<double>> passSeconds;
    Reference reference;
    while (rounds.another()) {
        const int r = rounds.next();
        trace.setEnabled(opt.trace && r % 2 == 1);
        const std::uint64_t group = static_cast<std::uint64_t>(r) * 4;
        SpanTrace::Scope round(trace, "bench", "round", group);

        const double generating = hostNow();
        std::vector<Program> programs;
        {
            SpanTrace::Scope span(trace, "bench", "generate", group);
            programs = makePrograms(opt.seed, out);
        }
        const double generateSeconds = hostNow() - generating;
        if (r == 0) {
            SpanTrace::Scope span(trace, "bench", "reference", group);
            reference = referenceRun(programs, out);
        }

        Pass guards = runPlane(programs, tfm::ArbiterMode::Auto, trace,
                               group + 1, out);
        Pass paged = runPlane(programs, tfm::ArbiterMode::ForceAllPaged,
                              trace, group + 2, out);

        {
            SpanTrace::Scope span(trace, "bench", "check", group);
            for (const Pass *pass : {&guards, &paged}) {
                if (pass->answers.size() != reference.answers.size())
                    out.fail("request count differs from the reference run");
                for (std::size_t i = 0; i < pass->answers.size() &&
                                        i < reference.answers.size();
                     i++) {
                    if (!(pass->answers[i] == reference.answers[i])) {
                        out.fail("request " + std::to_string(i) +
                                 " differs from the reference run");
                    }
                }
            }
        }

        setup.push_back(generateSeconds + guards.setupSeconds +
                        paged.setupSeconds);
        const double refInsts =
            static_cast<double>(reference.totalInstructions);
        compile.push_back(guards.compileSeconds);
        parse.push_back(guards.parseSeconds);
        runPrep.push_back(guards.runSeconds - guards.engineSeconds);
        instsPerSec.push_back(static_cast<double>(guards.instructions) /
                              guards.engineSeconds);
        for (const auto &entry : guards.passSeconds)
            passSeconds[entry.first].push_back(entry.second);
        host.addRound(guards.rates, trace.enabled());

        std::uint64_t goodInsts = 0;
        for (std::size_t i = 0; i < guards.latency.size() &&
                                i < reference.instructions.size();
             i++) {
            if (guards.latency[i] <= kSloCycles)
                goodInsts += reference.instructions[i];
        }
        const std::uint64_t p50 = percentile(guards.latency, 50);
        const std::uint64_t p99 = percentile(guards.latency, 99);
        std::vector<std::uint64_t> sim = statValues(guards.after);
        const std::vector<std::uint64_t> pagedSim = statValues(paged.after);
        sim.insert(sim.end(), pagedSim.begin(), pagedSim.end());
        sim.insert(sim.end(), guards.latency.begin(), guards.latency.end());
        sim.insert(sim.end(), paged.latency.begin(), paged.latency.end());
        sim.push_back(guards.instructions);
        sim.push_back(paged.instructions);
        fingerprint.check(r, sim, out, "compile_run");

        if (r == 0) {
            out.e2e["sim_cycles_per_op"] =
                static_cast<double>(guards.cycles) / refInsts;
            out.e2e["fastswap_sim_cycles_per_op"] =
                static_cast<double>(paged.cycles) / refInsts;
            out.e2e["p50_cycles"] = static_cast<double>(p50);
            out.e2e["p99_cycles"] = static_cast<double>(p99);
            out.e2e["goodput_per_mcycle"] =
                1e6 * static_cast<double>(goodInsts) /
                static_cast<double>(guards.cycles);
            layerTrackFm(guards.before, guards.after, refInsts, out);
            out.layer["paged.major_faults"] =
                grown(guards.before, guards.after, "paged.major_faults");
            out.layer["paged.reclaims"] =
                grown(guards.before, guards.after, "paged.reclaims");
            out.layer["passes.code_growth"] =
                ratio(static_cast<double>(guards.instsAfter),
                      static_cast<double>(guards.instsBefore));
            out.layer["passes.static_guards"] =
                static_cast<double>(guards.staticGuards);
            out.layer["passes.paged_sites"] =
                static_cast<double>(guards.pagedSites);
            const double guardsRun =
                out.layer["tfm.guards_per_op"] * refInsts;
            out.layer["interp.inline_guard_frac"] =
                ratio(static_cast<double>(guards.inlineGuardHits), guardsRun);
        }
    }
    trace.setEnabled(false);
    out.e2e["setup_s"] = median(setup);
    host.report(out);
    out.layer["core.compile_s"] = median(compile);
    out.layer["ir.parse_s"] = median(parse);
    out.layer["core.run_prep_s"] = median(runPrep);
    out.layer["interp.insts_per_s"] = median(instsPerSec);
    for (const auto &entry : passSeconds)
        out.layer["passes." + entry.first + "_s"] = median(entry.second);
    return out;
}

} // namespace perfbench
