// Tests for the audio subsystem: mu-law codec, signal sources, capture /
// playout, block handler, receiver, mixer and muting (paper sections 3.2,
// 3.5, 3.8, 4.3).
#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/audio/codec.h"
#include "src/audio/mix_kernels.h"
#include "src/audio/mixer.h"
#include "src/audio/muting.h"
#include "src/audio/receiver.h"
#include "src/audio/sender.h"
#include "src/audio/signal.h"
#include "src/audio/ulaw.h"
#include "src/buffer/clawback.h"
#include "src/buffer/pool.h"
#include "src/control/report.h"
#include "src/runtime/scheduler.h"

namespace pandora {
namespace {

// The G.711 codec as it stood before it became constexpr in ulaw.h, kept
// verbatim (exponent search loop and all) as the reference both companding
// tables and the live codec are checked against.
uint8_t ReferenceULawEncode(int16_t linear) {
  constexpr int kBias = 0x84;
  constexpr int kClip = 32635;
  int sample = linear;
  int sign = (sample >> 8) & 0x80;
  if (sign != 0) {
    sample = -sample;
  }
  if (sample > kClip) {
    sample = kClip;
  }
  sample += kBias;
  int exponent = 7;
  for (int mask = 0x4000; (sample & mask) == 0 && exponent > 0; mask >>= 1) {
    --exponent;
  }
  int mantissa = (sample >> (exponent + 3)) & 0x0F;
  return static_cast<uint8_t>(~(sign | (exponent << 4) | mantissa));
}

int16_t ReferenceULawDecode(uint8_t ulaw) {
  constexpr int kBias = 0x84;
  int value = ~ulaw & 0xFF;
  int sign = value & 0x80;
  int exponent = (value >> 4) & 0x07;
  int mantissa = value & 0x0F;
  int sample = ((mantissa << 3) + kBias) << exponent;
  sample -= kBias;
  return static_cast<int16_t>(sign != 0 ? -sample : sample);
}

TEST(MixKernelTest, DecodeTableMatchesReferenceCodecOverFullDomain) {
  // The vectorized mixer's bit-identity to the old fused loop rests on the
  // compile-time tables computing exactly the reference G.711 function.
  for (int i = 0; i < 256; ++i) {
    const auto codeword = static_cast<uint8_t>(i);
    EXPECT_EQ(kULawDecodeTable[static_cast<size_t>(i)], ReferenceULawDecode(codeword))
        << "codeword " << i;
    EXPECT_EQ(ULawDecode(codeword), ReferenceULawDecode(codeword)) << "codeword " << i;
  }
}

TEST(MixKernelTest, EncodeTableMatchesReferenceCodecOverFullDomain) {
  for (int i = -32768; i <= 32767; ++i) {
    const auto sample = static_cast<int16_t>(i);
    EXPECT_EQ(kULawEncodeTable[static_cast<uint16_t>(sample)], ReferenceULawEncode(sample))
        << "sample " << i;
    EXPECT_EQ(ULawEncode(sample), ReferenceULawEncode(sample)) << "sample " << i;
  }
}

TEST(MixKernelTest, SeparablePassesMatchFusedReferenceMix) {
  // Mix three µ-law streams through the separable kernels and through a
  // scalar decode/sum/clamp/encode reference; outputs must be identical
  // byte-for-byte (including saturation cases driven by the large inputs).
  std::array<std::array<uint8_t, kAudioBlockSamples>, 3> streams;
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < kAudioBlockSamples; ++i) {
      const int16_t linear = static_cast<int16_t>(((s + 1) * 9000) * ((i % 2 == 0) ? 1 : -1) +
                                                  i * 137 - s * 55);
      streams[static_cast<size_t>(s)][static_cast<size_t>(i)] = ULawEncode(linear);
    }
  }

  alignas(16) int32_t acc[kAudioBlockSamples] = {};
  alignas(16) int16_t linear[kAudioBlockSamples];
  for (const auto& stream : streams) {
    ULawDecodeBlock<kAudioBlockSamples>(stream.data(), linear);
    AccumulateBlock<kAudioBlockSamples>(linear, acc);
  }
  alignas(16) int16_t clamped[kAudioBlockSamples];
  uint8_t kernel_out[kAudioBlockSamples];
  ClampBlock<kAudioBlockSamples>(acc, clamped);
  ULawEncodeBlock<kAudioBlockSamples>(clamped, kernel_out);

  for (int i = 0; i < kAudioBlockSamples; ++i) {
    int32_t sum = 0;
    for (const auto& stream : streams) {
      sum += ULawDecode(stream[static_cast<size_t>(i)]);
    }
    const int32_t sat = sum < -32768 ? -32768 : (sum > 32767 ? 32767 : sum);
    EXPECT_EQ(kernel_out[i], ULawEncode(static_cast<int16_t>(sat))) << "sample " << i;
  }
}

TEST(ULawTest, SilenceAndExtremes) {
  EXPECT_EQ(ULawEncode(0), kULawSilence);
  EXPECT_EQ(ULawDecode(kULawSilence), 0);
  EXPECT_GT(ULawDecode(ULawEncode(30000)), 28000);
  EXPECT_LT(ULawDecode(ULawEncode(-30000)), -28000);
}

TEST(ULawTest, RoundTripIsCloseAcrossTheRange) {
  for (int v = -32000; v <= 32000; v += 17) {
    int16_t in = static_cast<int16_t>(v);
    int16_t out = ULawDecode(ULawEncode(in));
    // Companding error grows with magnitude: ~1/16 relative plus a floor.
    double tolerance = std::abs(v) / 12.0 + 16.0;
    EXPECT_NEAR(out, in, tolerance) << "v=" << v;
  }
}

TEST(ULawTest, DecodeEncodeIsIdentityOnCodewords) {
  // Decoded values are exact codeword centres: re-encoding must return the
  // same byte (this is what makes table-based muting lossless at 100%).
  for (int u = 0; u < 256; ++u) {
    uint8_t byte = static_cast<uint8_t>(u);
    int16_t linear = ULawDecode(byte);
    uint8_t re = ULawEncode(linear);
    EXPECT_EQ(ULawDecode(re), linear) << "u=" << u;
  }
}

TEST(ULawTest, MonotonicOverPositiveRange) {
  int16_t prev = ULawDecode(ULawEncode(0));
  for (int v = 1; v <= 32000; v += 11) {
    int16_t now = ULawDecode(ULawEncode(static_cast<int16_t>(v)));
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(SignalTest, SineHasExpectedAmplitudeAndPeriod) {
  SineSource sine(500.0, 10000.0);  // period 2ms
  EXPECT_EQ(sine.SampleAt(0), 0);
  EXPECT_NEAR(sine.SampleAt(500), 10000, 2);  // quarter period = 500us
  EXPECT_NEAR(sine.SampleAt(1000), 0, 2);
  EXPECT_NEAR(sine.SampleAt(1500), -10000, 2);
  EXPECT_NEAR(sine.SampleAt(Millis(2)), 0, 2);
}

TEST(SignalTest, SpeechLikeHasTalkAndSilentPhases) {
  SpeechLikeSource speech(9000.0, 4.0, 0.5);  // 250ms cycle, 125ms talk
  bool saw_loud = false;
  for (Time t = 0; t < Millis(125); t += 125) {
    if (std::abs(speech.SampleAt(t)) > 2000) {
      saw_loud = true;
    }
  }
  EXPECT_TRUE(saw_loud);
  for (Time t = Millis(130); t < Millis(245); t += 125) {
    EXPECT_EQ(speech.SampleAt(t), 0) << "t=" << t;
  }
}

// --- Muting (fig 4.1) --------------------------------------------------------

AudioBlock LoudBlock(int16_t level = 8000) {
  AudioBlock block;
  block.samples.fill(ULawEncode(level));
  return block;
}

AudioBlock QuietBlock() {
  AudioBlock block;
  block.samples.fill(kULawSilence);
  return block;
}

TEST(MutingTableTest, ScalesSamples) {
  MutingTable half(0.5);
  uint8_t loud = ULawEncode(8000);
  int16_t scaled = ULawDecode(half.Apply(loud));
  EXPECT_NEAR(scaled, 4000, 300);
  // Unity table is the identity on codewords.
  MutingTable unity(1.0);
  for (int u = 0; u < 256; ++u) {
    EXPECT_EQ(ULawDecode(unity.Apply(static_cast<uint8_t>(u))),
              ULawDecode(static_cast<uint8_t>(u)));
  }
}

TEST(MutingControlTest, TwoStageProfileMatchesFigure41) {
  MutingControl muting;
  // Quiet: full volume.
  EXPECT_DOUBLE_EQ(muting.FactorAt(0), 1.0);

  // Loud block at t=10ms: attack at 50% for one 2ms step, then 20%.
  muting.ObserveSpeakerBlock(Millis(10), LoudBlock());
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(10)), 0.5);
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(11)), 0.5);
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(12)), 0.2);
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(20)), 0.2);

  // 22ms of quiet after the last loud block -> 50%.
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(31)), 0.2);
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(32)), 0.5);
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(53)), 0.5);
  // 22ms more -> back to 100%.
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(54)), 1.0);
  EXPECT_EQ(muting.activations(), 1u);
}

TEST(MutingControlTest, ContinuedLoudnessHoldsDeepFactor) {
  MutingControl muting;
  for (Time t = 0; t < Millis(100); t += Millis(2)) {
    muting.ObserveSpeakerBlock(t, LoudBlock());
  }
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(100)), 0.2);
  // Quiet resumes the release schedule from the LAST loud block.
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(119)), 0.2);
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(121)), 0.5);
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(143)), 1.0);
  EXPECT_EQ(muting.activations(), 1u);  // one continuous activation
}

TEST(MutingControlTest, LoudnessDuringReleaseReturnsToDeep) {
  MutingControl muting;
  muting.ObserveSpeakerBlock(0, LoudBlock());
  // In release at 24ms (2ms attack + 22ms deep hold after last loud at 0).
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(25)), 0.5);
  muting.ObserveSpeakerBlock(Millis(26), LoudBlock());
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(26)), 0.2);
}

TEST(MutingControlTest, QuietBlocksDoNotTrigger) {
  MutingControl muting;
  for (Time t = 0; t < Millis(50); t += Millis(2)) {
    muting.ObserveSpeakerBlock(t, QuietBlock());
  }
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(50)), 1.0);
  EXPECT_EQ(muting.activations(), 0u);
}

TEST(MutingControlTest, AppliesFactorToMicBlocks) {
  MutingControl muting;
  muting.ObserveSpeakerBlock(0, LoudBlock());
  AudioBlock mic = LoudBlock(10000);
  muting.ApplyToMicBlock(Millis(4), &mic);  // deep region: 20%
  EXPECT_NEAR(ULawDecode(mic.samples[0]), 2000, 200);
}

TEST(MutingControlTest, DisabledIsTransparent) {
  MutingConfig config;
  config.enabled = false;
  MutingControl muting(config);
  muting.ObserveSpeakerBlock(0, LoudBlock());
  EXPECT_DOUBLE_EQ(muting.FactorAt(Millis(2)), 1.0);
}

// --- Codec ------------------------------------------------------------------

TEST(CodecInputTest, EmitsOneBlockPer2msWithSourceTimes) {
  Scheduler sched;
  SineSource tone(440.0);
  Channel<AudioBlock> out(&sched, "mic");
  CodecInput codec(&sched, {.name = "in", .clock_drift = 0.0}, &tone, &out);
  ShutdownGuard guard(&sched);

  std::vector<AudioBlock> got;
  auto sink = [](Channel<AudioBlock>* c, std::vector<AudioBlock>* got) -> Process {
    for (;;) {
      got->push_back(co_await c->Receive());
    }
  };
  sched.Spawn(sink(&out, &got), "sink");
  codec.Start();
  sched.RunFor(Millis(20));
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got[0].source_time, 0);
  EXPECT_EQ(got[1].source_time, Millis(2));
  EXPECT_EQ(got[9].source_time, Millis(18));
}

TEST(CodecInputTest, ClockDriftShiftsCadence) {
  Scheduler sched;
  SilenceSource silence;
  Channel<AudioBlock> out(&sched, "mic");
  // A fast source clock (+1%) emits blocks slightly more often.
  CodecInput codec(&sched, {.name = "in", .clock_drift = 0.01}, &silence, &out);
  ShutdownGuard guard(&sched);
  uint64_t count = 0;
  auto sink = [](Channel<AudioBlock>* c, uint64_t* n) -> Process {
    for (;;) {
      (void)co_await c->Receive();
      ++*n;
    }
  };
  sched.Spawn(sink(&out, &count), "sink");
  codec.Start();
  sched.RunFor(Seconds(2));
  // 1000 blocks at nominal rate; +1% -> ~1010.
  EXPECT_GE(count, 1008u);
  EXPECT_LE(count, 1012u);
}

TEST(CodecOutputTest, PrimesThenPlays) {
  Scheduler sched;
  CodecOutput out(&sched, {.name = "out", .prime_blocks = 2});
  ShutdownGuard guard(&sched);
  out.Start();
  sched.RunFor(Millis(10));
  EXPECT_EQ(out.played_blocks(), 0u);  // nothing submitted: still priming
  EXPECT_EQ(out.underruns(), 0u);      // priming is not an underrun

  AudioBlock block;
  block.source_time = sched.now();
  out.SubmitBlock(block);
  out.SubmitBlock(block);
  sched.RunFor(Millis(10));
  EXPECT_EQ(out.played_blocks(), 2u);
  EXPECT_GT(out.underruns(), 0u);  // ran dry after the two blocks
}

TEST(CodecOutputTest, LatencyMeasuredFromSourceTime) {
  Scheduler sched;
  CodecOutput out(&sched, {.name = "out", .prime_blocks = 1});
  ShutdownGuard guard(&sched);
  out.Start();
  AudioBlock block;
  block.source_time = 0;
  out.SubmitBlock(block);
  sched.RunFor(Millis(4));
  ASSERT_EQ(out.played_blocks(), 1u);
  EXPECT_EQ(out.latency().Mean(), 2000.0);  // played at first 2ms tick
}

// --- Sender / Receiver / Mixer ------------------------------------------------

TEST(AudioSenderTest, AccumulatesBlocksIntoSegments) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 16);
  Channel<AudioBlock> mic(&sched, "mic");
  Channel<SegmentRef> wire(&sched, "wire");
  AudioSender sender(&sched, {.name = "snd", .stream = 5, .blocks_per_segment = 2}, &mic, &pool,
                     &wire);
  ShutdownGuard guard(&sched);
  sender.Start();

  std::vector<uint32_t> sequences;
  std::vector<int> block_counts;
  auto feeder = [](Scheduler* s, Channel<AudioBlock>* mic) -> Process {
    for (int i = 0; i < 6; ++i) {
      AudioBlock block;
      block.source_time = s->now();
      block.samples.fill(static_cast<uint8_t>(i));
      co_await mic->Send(block);
      co_await s->WaitFor(Millis(2));
    }
  };
  auto sink = [](Channel<SegmentRef>* wire, std::vector<uint32_t>* seqs,
                 std::vector<int>* counts) -> Process {
    for (;;) {
      SegmentRef ref = co_await wire->Receive();
      seqs->push_back(ref->header.sequence);
      counts->push_back(ref->AudioBlockCount());
    }
  };
  sched.Spawn(feeder(&sched, &mic), "feeder");
  sched.Spawn(sink(&wire, &sequences, &block_counts), "sink");
  sched.RunFor(Millis(20));
  ASSERT_EQ(sequences.size(), 3u);
  EXPECT_EQ(sequences, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(block_counts, (std::vector<int>{2, 2, 2}));
  EXPECT_EQ(sender.blocks_consumed(), 6u);
}

TEST(AudioSenderTest, BlocksPerSegmentCommandTakesEffectMidStream) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 16);
  Channel<AudioBlock> mic(&sched, "mic");
  Channel<SegmentRef> wire(&sched, "wire");
  AudioSender sender(&sched, {.name = "snd", .stream = 5, .blocks_per_segment = 1}, &mic, &pool,
                     &wire);
  ShutdownGuard guard(&sched);
  sender.Start();

  std::vector<int> block_counts;
  auto feeder = [](Scheduler* s, Channel<AudioBlock>* mic, CommandChannel* cmd) -> Process {
    AudioBlock block;
    for (int i = 0; i < 2; ++i) {
      block.source_time = s->now();
      co_await mic->Send(block);
      co_await s->WaitFor(Millis(2));
    }
    co_await cmd->Send(Command{CommandVerb::kSetBlocksPerSegment, 5, 3, 0});
    for (int i = 0; i < 6; ++i) {
      block.source_time = s->now();
      co_await mic->Send(block);
      co_await s->WaitFor(Millis(2));
    }
  };
  auto sink = [](Channel<SegmentRef>* wire, std::vector<int>* counts) -> Process {
    for (;;) {
      SegmentRef ref = co_await wire->Receive();
      counts->push_back(ref->AudioBlockCount());
    }
  };
  sched.Spawn(feeder(&sched, &mic, &sender.commands()), "feeder");
  sched.Spawn(sink(&wire, &block_counts), "sink");
  sched.RunFor(Millis(40));
  EXPECT_EQ(block_counts, (std::vector<int>{1, 1, 3, 3}));
}

// A self-contained audio loop: codec capture -> sender -> wire -> receiver
// -> clawback bank -> mixer -> codec playout, all on one scheduler.
struct AudioLoop {
  explicit AudioLoop(double source_drift = 0.0, MixRecovery recovery = MixRecovery::kReplayLast,
                     bool record = false)
      : pool(&sched, "pool", 64),
        mic(&sched, "mic"),
        wire(&sched, "wire"),
        tone(440.0, 9000.0),
        codec_in(&sched, {.name = "codec.in", .clock_drift = source_drift}, &tone, &mic),
        sender(&sched, {.name = "sender", .stream = 1}, &mic, &pool, &wire),
        bank(ClawbackConfig{}),
        receiver(&sched, {.name = "recv"}, &wire, &bank),
        codec_out(&sched,
                  {.name = "codec.out", .prime_blocks = 2, .record_samples = record}),
        mixer(&sched, {.name = "mixer", .recovery = recovery}, &bank, nullptr, &codec_out) {}

  void Start() {
    codec_in.Start();
    sender.Start();
    receiver.Start();
    codec_out.Start();
    mixer.Start();
  }

  Scheduler sched;
  BufferPool pool;
  Channel<AudioBlock> mic;
  Channel<SegmentRef> wire;
  SineSource tone;
  CodecInput codec_in;
  AudioSender sender;
  ClawbackBank bank;
  AudioReceiver receiver;
  CodecOutput codec_out;
  AudioMixer mixer;
  ShutdownGuard guard{&sched};
};

TEST(AudioLoopTest, EndToEndDeliversContinuousAudio) {
  AudioLoop loop;
  loop.Start();
  loop.sched.RunFor(Seconds(2));
  // ~1000 blocks captured, nearly all played.
  EXPECT_GT(loop.codec_out.played_blocks(), 980u);
  EXPECT_EQ(loop.receiver.total_missing(), 0u);
  // Direct wire: latency stays in the best-case regime (paper: 8ms).
  EXPECT_LT(loop.codec_out.latency().Mean(), 10000.0);
  EXPECT_GE(loop.codec_out.latency().Mean(), 4000.0);
}

TEST(AudioLoopTest, SourceClockDriftIsAbsorbedByClawback) {
  // Quartz drift (paper: ~1e-5, must be < the 1-in-4000 clawback rate).
  // Exaggerated to 2e-4 so the effect shows within a one-minute run: the
  // fast source produces ~6 extra blocks; clawback removes them and the
  // buffer depth stays bounded near its target.
  AudioLoop loop(/*source_drift=*/2e-4);
  loop.Start();
  loop.sched.RunFor(Seconds(60));
  auto stats = loop.bank.TotalStats();
  EXPECT_GT(stats.clawback_drops, 2u);
  EXPECT_LT(stats.max_depth, 10u);  // never built an unbounded backlog
  EXPECT_EQ(stats.limit_drops, 0u);
  // Playout never starved for long: underruns bounded.
  EXPECT_LT(loop.codec_out.underruns(), 30u);
}

TEST(AudioMixerTest, TwoStreamsSumInLinearSpace) {
  Scheduler sched;
  ClawbackBank bank{ClawbackConfig{}};
  CodecOutput out(&sched, {.name = "out", .prime_blocks = 1, .record_samples = true});
  AudioMixer mixer(&sched, {.name = "mix"}, &bank, nullptr, &out);
  ShutdownGuard guard(&sched);
  out.Start();
  mixer.Start();

  // Two identical constant-amplitude streams.
  auto feeder = [](Scheduler* s, ClawbackBank* bank) -> Process {
    AudioBlock block;
    block.samples.fill(ULawEncode(6000));
    for (int i = 0; i < 100; ++i) {
      block.source_time = s->now();
      bank->Push(1, block);
      bank->Push(2, block);
      co_await s->WaitFor(Millis(2));
    }
  };
  sched.Spawn(feeder(&sched, &bank), "feeder");
  sched.RunFor(Millis(150));

  ASSERT_GT(out.recorded().size(), 100u);
  // Steady samples should decode to ~12000 (6000 + 6000).
  int16_t mid = ULawDecode(out.recorded()[out.recorded().size() / 2].ulaw);
  EXPECT_NEAR(mid, 12000, 800);
}

TEST(AudioMixerTest, SaturatesInsteadOfWrapping) {
  Scheduler sched;
  ClawbackBank bank{ClawbackConfig{}};
  CodecOutput out(&sched, {.name = "out", .prime_blocks = 1, .record_samples = true});
  AudioMixer mixer(&sched, {.name = "mix"}, &bank, nullptr, &out);
  ShutdownGuard guard(&sched);
  out.Start();
  mixer.Start();

  auto feeder = [](Scheduler* s, ClawbackBank* bank) -> Process {
    AudioBlock block;
    block.samples.fill(ULawEncode(30000));
    for (int i = 0; i < 20; ++i) {
      block.source_time = s->now();
      bank->Push(1, block);
      bank->Push(2, block);
      co_await s->WaitFor(Millis(2));
    }
  };
  sched.Spawn(feeder(&sched, &bank), "feeder");
  sched.RunFor(Millis(60));
  for (const PlayedSample& sample : out.recorded()) {
    EXPECT_GE(ULawDecode(sample.ulaw), 0) << "wrapped negative";
  }
}

TEST(AudioMixerTest, ReplayLastBlockOnEmptyBuffer) {
  Scheduler sched;
  ClawbackBank bank{ClawbackConfig{}};
  AudioMixer mixer(&sched, {.name = "mix", .recovery = MixRecovery::kReplayLast}, &bank);
  ShutdownGuard guard(&sched);
  mixer.Start();

  auto feeder = [](Scheduler* s, ClawbackBank* bank) -> Process {
    AudioBlock block;
    block.samples.fill(ULawEncode(5000));
    // Feed 5 blocks, pause (forcing empties), feed again.
    for (int i = 0; i < 5; ++i) {
      block.source_time = s->now();
      bank->Push(9, block);
      co_await s->WaitFor(Millis(2));
    }
    co_await s->WaitFor(Millis(10));
    for (int i = 0; i < 5; ++i) {
      block.source_time = s->now();
      bank->Push(9, block);
      co_await s->WaitFor(Millis(2));
    }
  };
  sched.Spawn(feeder(&sched, &bank), "feeder");
  sched.RunFor(Millis(50));
  EXPECT_GE(mixer.replays(), 1u);
  EXPECT_GT(mixer.blocks_mixed(), 8u);
}

TEST(AudioMixerTest, CpuOverloadMakesTicksLate) {
  // E4's mechanism in miniature: with default costs, 6 plain streams
  // exceed the 2ms budget and the mixer cannot hold its cadence.
  Scheduler sched;
  CpuModel cpu(&sched, "audio.cpu");
  ClawbackBank bank{ClawbackConfig{}};
  AudioMixer mixer(&sched, {.name = "mix", .jitter_correction = false}, &bank, &cpu);
  ShutdownGuard guard(&sched);
  mixer.Start();

  auto feeder = [](Scheduler* s, ClawbackBank* bank, int streams) -> Process {
    AudioBlock block;
    block.samples.fill(ULawEncode(1000));
    for (int i = 0; i < 500; ++i) {
      block.source_time = s->now();
      for (int st = 1; st <= streams; ++st) {
        bank->Push(static_cast<StreamId>(st), block);
      }
      co_await s->WaitFor(Millis(2));
    }
  };
  sched.Spawn(feeder(&sched, &bank, 6), "feeder");
  sched.RunFor(Seconds(1));
  EXPECT_GT(mixer.late_ticks(), mixer.ticks() / 2);
  EXPECT_GT(cpu.Utilization(), 0.99);
}

TEST(AudioMixerTest, FiveStreamsFitTheBudget) {
  Scheduler sched;
  CpuModel cpu(&sched, "audio.cpu");
  ClawbackBank bank{ClawbackConfig{}};
  AudioMixer mixer(&sched, {.name = "mix", .jitter_correction = false}, &bank, &cpu);
  ShutdownGuard guard(&sched);
  mixer.Start();

  auto feeder = [](Scheduler* s, ClawbackBank* bank) -> Process {
    AudioBlock block;
    block.samples.fill(ULawEncode(1000));
    for (int i = 0; i < 500; ++i) {
      block.source_time = s->now();
      for (int st = 1; st <= 5; ++st) {
        bank->Push(static_cast<StreamId>(st), block);
      }
      co_await s->WaitFor(Millis(2));
    }
  };
  sched.Spawn(feeder(&sched, &bank), "feeder");
  sched.RunFor(Seconds(1));
  EXPECT_EQ(mixer.max_lateness(), 0);
  EXPECT_LT(cpu.Utilization(), 1.0);
  EXPECT_GT(cpu.Utilization(), 0.90);  // near the edge, as the paper says
}

TEST(AudioLoopTest, LossCreatesGapsThatReceiverDetects) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 64);
  Channel<AudioBlock> mic(&sched, "mic");
  Channel<SegmentRef> wire_in(&sched, "wire.in");
  Channel<SegmentRef> wire_out(&sched, "wire.out");
  SineSource tone(440.0);
  CodecInput codec_in(&sched, {.name = "in"}, &tone, &mic);
  AudioSender sender(&sched, {.name = "snd", .stream = 2}, &mic, &pool, &wire_in);
  ClawbackBank bank{ClawbackConfig{}};
  AudioReceiver receiver(&sched, {.name = "rcv"}, &wire_out, &bank);
  AudioMixer mixer(&sched, {.name = "mix"}, &bank);
  ShutdownGuard guard(&sched);

  // Drop every 5th segment in flight.
  auto lossy_relay = [](Channel<SegmentRef>* in, Channel<SegmentRef>* out) -> Process {
    int n = 0;
    for (;;) {
      SegmentRef ref = co_await in->Receive();
      if (++n % 5 == 0) {
        continue;  // lost
      }
      co_await out->Send(std::move(ref));
    }
  };
  codec_in.Start();
  sender.Start();
  sched.Spawn(lossy_relay(&wire_in, &wire_out), "relay");
  receiver.Start();
  mixer.Start();
  sched.RunFor(Seconds(2));

  const SequenceTracker* tracker = receiver.TrackerFor(2);
  ASSERT_NE(tracker, nullptr);
  EXPECT_GT(tracker->gap_events(), 50u);
  EXPECT_NEAR(tracker->LossFraction(), 0.2, 0.03);
  // The mixer papered over the holes with replays or silences.
  EXPECT_GT(mixer.replays() + mixer.silences(), 50u);
}

}  // namespace
}  // namespace pandora
