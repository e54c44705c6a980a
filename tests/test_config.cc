/**
 * @file
 * Configuration parsing and TechParams override tests.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "nvmodel/tech_params.hh"

namespace prime {
namespace {

TEST(Config, ParseAssignment)
{
    Config c;
    c.set("timing.sa_clock_ghz=1.5");
    EXPECT_TRUE(c.has("timing.sa_clock_ghz"));
    EXPECT_DOUBLE_EQ(c.getDouble("timing.sa_clock_ghz", 0.0), 1.5);
}

TEST(Config, MalformedAssignmentIsFatal)
{
    Config c;
    EXPECT_THROW(c.set("noequals"), std::runtime_error);
    EXPECT_THROW(c.set("=value"), std::runtime_error);
}

TEST(Config, TypedGettersWithDefaults)
{
    Config c;
    c.set("a", "3");
    c.set("b", "2.5");
    c.set("s", "hello");
    EXPECT_EQ(c.getInt("a", 0), 3);
    EXPECT_DOUBLE_EQ(c.getDouble("b", 0.0), 2.5);
    EXPECT_EQ(c.getString("s", ""), "hello");
    EXPECT_EQ(c.getInt("missing", 42), 42);
}

TEST(Config, NonNumericIsFatal)
{
    Config c;
    c.set("x", "abc");
    EXPECT_THROW(c.getDouble("x", 0.0), std::runtime_error);
    Config c2;
    c2.set("y", "2.5");
    EXPECT_THROW(c2.getInt("y", 0), std::runtime_error);
}

TEST(Config, TracksUnusedKeys)
{
    Config c;
    c.set("used", "1");
    c.set("unused", "2");
    c.getInt("used", 0);
    auto unused = c.unusedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "unused");
}

TEST(ApplyConfig, OverridesRecognizedKeys)
{
    Config c;
    c.set("geometry.ff_subarrays", "4");
    c.set("timing.sa_clock_ghz", "1.0");
    c.set("datapath.output_bits", "7");
    c.set("device.program_variation", "0.05");
    nvmodel::TechParams p = nvmodel::defaultTechParams();
    applyConfig(c, p);
    EXPECT_EQ(p.geometry.ffSubarraysPerBank, 4);
    EXPECT_DOUBLE_EQ(p.timing.saClockGHz, 1.0);
    EXPECT_EQ(p.outputBits, 7);
    EXPECT_DOUBLE_EQ(p.device.programVariation, 0.05);
}

TEST(ApplyConfig, DerivesPhaseBits)
{
    Config c;
    c.set("datapath.input_bits", "4");
    c.set("datapath.weight_bits", "4");
    nvmodel::TechParams p = nvmodel::defaultTechParams();
    applyConfig(c, p);
    EXPECT_EQ(p.inputPhaseBits, 2);
    EXPECT_EQ(p.cellBits, 2);
}

TEST(ApplyConfig, WeightBitsCappedAtSignedPlaneRange)
{
    Config ok;
    ok.set("datapath.weight_bits", "14");
    nvmodel::TechParams p = nvmodel::defaultTechParams();
    applyConfig(ok, p);
    EXPECT_EQ(p.cellBits, 7);

    Config wide;
    wide.set("datapath.weight_bits", "16");
    nvmodel::TechParams q = nvmodel::defaultTechParams();
    try {
        applyConfig(wide, q);
        FAIL() << "weight_bits=16 accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("datapath.weight_bits"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ApplyConfig, RejectsUnknownKey)
{
    Config c;
    c.set("geometry.typo", "4");
    nvmodel::TechParams p = nvmodel::defaultTechParams();
    EXPECT_THROW(applyConfig(c, p), std::runtime_error);
}

TEST(ApplyConfig, EmptyConfigIsIdentity)
{
    Config c;
    nvmodel::TechParams p = nvmodel::defaultTechParams();
    applyConfig(c, p);
    EXPECT_EQ(p.geometry.ffSubarraysPerBank, 2);
    EXPECT_EQ(p.outputBits, 6);
}

} // namespace
} // namespace prime
