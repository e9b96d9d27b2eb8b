/** @file Edge cases across modules: image corruption, parser error
 * paths, cross-pool value operations, and API misuse that must fail
 * loudly rather than corrupt state. */

#include <gtest/gtest.h>

#include <fstream>

#include "compiler/ir_parser.hh"
#include "containers/memory_env.hh"
#include "nvm/pool_manager.hh"
#include "temp_path.hh"

using namespace upr;

// ---------------------------------------------------------------------
// Pool image corruption
// ---------------------------------------------------------------------

namespace
{

std::string
writeTempImage(const std::vector<std::uint8_t> &bytes,
               const std::string &name)
{
    const std::string path = test::tempPath(name);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    return path;
}

} // namespace

TEST(ImageCorruption, FlippedMagicRejected)
{
    AddressSpace space;
    PoolManager mgr(space);
    const PoolId id = mgr.createPool("src", 1 << 20);
    const std::string good = test::tempPath("good.img");
    mgr.saveImage(id, good);

    std::ifstream is(good, std::ios::binary);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    bytes[0] ^= 0xFF; // corrupt the magic
    const std::string bad = writeTempImage(bytes, "bad_magic.img");

    AddressSpace space2;
    PoolManager mgr2(space2);
    EXPECT_THROW(mgr2.loadImage(bad, "x"), Fault);
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(ImageCorruption, TruncatedImageRejected)
{
    AddressSpace space;
    PoolManager mgr(space);
    const PoolId id = mgr.createPool("src", 1 << 20);
    const std::string good = test::tempPath("good2.img");
    mgr.saveImage(id, good);

    std::ifstream is(good, std::ios::binary);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() / 2); // size-field mismatch
    const std::string bad = writeTempImage(bytes, "truncated.img");

    AddressSpace space2;
    PoolManager mgr2(space2);
    EXPECT_THROW(mgr2.loadImage(bad, "x"), Fault);
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(ImageCorruption, DuplicatePoolIdRejectedOnLoad)
{
    AddressSpace space;
    PoolManager mgr(space);
    const PoolId id = mgr.createPool("orig", 1 << 20);
    const std::string img = test::tempPath("dup.img");
    mgr.saveImage(id, img);
    // The image's ID collides with the still-live pool.
    EXPECT_THROW(mgr.loadImage(img, "copy"), Fault);
    std::remove(img.c_str());
}

// ---------------------------------------------------------------------
// IR parser error paths
// ---------------------------------------------------------------------

TEST(IrParserErrors, UnknownBranchTarget)
{
    EXPECT_THROW(ir::parseModule(R"(
func @f(%c: i64) {
entry:
  br %c, nowhere, entry
}
)"),
                 Fault);
}

TEST(IrParserErrors, MalformedPhiBrackets)
{
    EXPECT_THROW(ir::parseModule(R"(
func @f() -> i64 {
entry:
  %x = phi.i64 entry, %x
  ret %x
}
)"),
                 Fault);
}

TEST(IrParserErrors, NestedFunctionRejected)
{
    EXPECT_THROW(ir::parseModule(
                     "func @a() {\nfunc @b() {\n}\n}\n"),
                 Fault);
}

TEST(IrParserErrors, MissingClosingBrace)
{
    EXPECT_THROW(ir::parseModule("func @f() {\nentry:\n  ret\n"),
                 Fault);
}

TEST(IrParserErrors, RedefinedValueRejected)
{
    EXPECT_THROW(ir::parseModule(R"(
func @f() -> i64 {
entry:
  %x = const 1
  %x = const 2
  ret %x
}
)"),
                 Fault);
}

TEST(IrParserErrors, CallArityMismatchCaught)
{
    try {
        ir::parseModule(R"(
func @g(%a: i64) -> i64 {
entry:
  ret %a
}

func @f() {
entry:
  call @g()
  ret
}
)");
        FAIL() << "expected a verifier Fault";
    } catch (const Fault &f) {
        EXPECT_NE(std::string(f.what()).find("arity"),
                  std::string::npos)
            << f.what();
        // The verifier locates the offending call site.
        EXPECT_NE(std::string(f.what()).find("line 9"),
                  std::string::npos)
            << f.what();
    }
}

// ---------------------------------------------------------------------
// Cross-pool and mixed-form value operations
// ---------------------------------------------------------------------

namespace
{

struct Cell
{
    std::uint64_t v = 0;
};

} // namespace

TEST(CrossPoolValues, DiffAndOrderingAcrossPools)
{
    Runtime::Config cfg;
    cfg.version = Version::Hw;
    Runtime rt(cfg);
    RuntimeScope scope(rt);
    const PoolId a = rt.createPool("a", 1 << 20);
    const PoolId b = rt.createPool("b", 1 << 20);

    const PtrBits pa = rt.pmallocBits(a, 64);
    const PtrBits pb = rt.pmallocBits(b, 64);

    // Cross-pool difference = virtual-address difference.
    const std::int64_t d = rt.ptrDiffBytes(pa, pb, 1);
    const std::int64_t want =
        static_cast<std::int64_t>(rt.resolveForAccess(pa, 2)) -
        static_cast<std::int64_t>(rt.resolveForAccess(pb, 3));
    EXPECT_EQ(d, want);

    // Ordering is consistent with the difference's sign.
    EXPECT_EQ(rt.ptrLt(pa, pb, 4), d < 0);
}

TEST(CrossPoolValues, MixedFormComparisonAgrees)
{
    Runtime::Config cfg;
    cfg.version = Version::Sw;
    Runtime rt(cfg);
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("p", 1 << 20);

    const PtrBits ra = rt.pmallocBits(pool, 64);
    const PtrBits va = PtrRepr::fromVa(rt.resolveForAccess(ra, 1));
    // RA form vs VA form of the same object: equal under Fig 4.
    EXPECT_TRUE(rt.ptrEq(ra, va, 2));
    EXPECT_FALSE(rt.ptrLt(ra, va, 3));
    EXPECT_FALSE(rt.ptrLt(va, ra, 4));
    // And against a different object, both forms agree on ordering.
    const PtrBits other = rt.pmallocBits(pool, 64);
    EXPECT_EQ(rt.ptrLt(ra, other, 5), rt.ptrLt(va, other, 6));
}

// ---------------------------------------------------------------------
// API misuse
// ---------------------------------------------------------------------

TEST(ApiMisuse, OpenPoolWhileAttachedThrows)
{
    AddressSpace space;
    PoolManager mgr(space);
    mgr.createPool("p", 1 << 20);
    EXPECT_THROW(mgr.openPool("p"), Fault);
}

TEST(ApiMisuse, CommitWithoutBeginPanics)
{
    Runtime rt;
    EXPECT_DEATH(rt.commitTxn(), "without beginTxn");
}

TEST(ApiMisuse, EnvAllocAfterPoolDestroyFaults)
{
    Runtime rt;
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("gone", 1 << 20);
    MemEnv env = MemEnv::persistentEnv(rt, pool);
    rt.pools().destroy(pool);
    EXPECT_DEATH((void)env.alloc<Cell>(), "unknown pool");
}

TEST(ApiMisuse, ScopeNestingRestoresPrevious)
{
    Runtime a, b;
    RuntimeScope sa(a);
    EXPECT_EQ(&currentRuntime(), &a);
    {
        RuntimeScope sb(b);
        EXPECT_EQ(&currentRuntime(), &b);
    }
    EXPECT_EQ(&currentRuntime(), &a);
}
