/**
 * @file
 * Deterministic mutator shared by the decoder fuzz tests (journal
 * records, sweep specs, chaos schedules, layout plans).
 *
 * Mutant i starts from a random corpus entry and applies operation
 * i % ops: bit flips, a truncation, a random byte overwrite, a splice
 * of two entries at random cut points and, for the text formats, an
 * overwrite from a small alphabet of the characters those formats
 * are made of (so mutants stay close enough to the grammar to be
 * accepted sometimes) and a dropped or moved line. A test asserts
 * its decoder's contract on every mutant; run under the asan-ubsan
 * preset this also proves the decoder never reads out of bounds.
 */

#ifndef TMI_TESTS_COMMON_MUTATION_FUZZ_HH
#define TMI_TESTS_COMMON_MUTATION_FUZZ_HH

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace tmi::test
{

class Mutator
{
  public:
    /** Binary mutations only (the first four operations). */
    static constexpr unsigned kBinaryOps = 4;
    /** All six, for the line-oriented text formats. */
    static constexpr unsigned kTextOps = 6;

    /** @p corpus entries must be non-empty. */
    Mutator(std::vector<std::string> corpus, std::uint64_t seed,
            unsigned ops)
        : _corpus(std::move(corpus)), _rng(seed), _ops(ops)
    {
    }

    /** The @p i-th mutant (call with i = 0, 1, 2, ... in order). */
    std::string
    mutate(unsigned i)
    {
        std::string m = _corpus[pick(_corpus.size())];
        switch (i % _ops) {
          case 0: // flip 1-4 bits
            for (std::size_t n = 1 + pick(4); n > 0; --n)
                m[pick(m.size())] ^= static_cast<char>(1u << pick(8));
            break;
          case 1: // truncate
            m.resize(pick(m.size()));
            break;
          case 2: // overwrite a byte
            m[pick(m.size())] = static_cast<char>(_rng());
            break;
          case 3: { // splice two entries at random cut points
            const std::string &other = _corpus[pick(_corpus.size())];
            m = m.substr(0, pick(m.size())) +
                other.substr(pick(other.size()));
            break;
          }
          case 4: { // 1-3 grammar characters
            constexpr std::string_view alphabet =
                "0123456789-+.,=:/# \nxe";
            for (std::size_t n = 1 + pick(3); n > 0; --n)
                m[pick(m.size())] = alphabet[pick(alphabet.size())];
            break;
          }
          case 5: { // drop a line, or move it elsewhere doubled
            std::size_t begin = m.rfind('\n', pick(m.size()));
            begin = begin == std::string::npos ? 0 : begin + 1;
            std::size_t end = m.find('\n', begin);
            end = end == std::string::npos ? m.size() : end + 1;
            std::string line = m.substr(begin, end - begin);
            m.erase(begin, end - begin);
            if (_rng() & 1)
                m.insert(pick(m.size() + 1), line + line);
            break;
          }
        }
        return m;
    }

  private:
    std::size_t
    pick(std::size_t n)
    {
        return n ? static_cast<std::size_t>(_rng() % n) : 0;
    }

    std::vector<std::string> _corpus;
    std::mt19937_64 _rng;
    unsigned _ops;
};

} // namespace tmi::test

#endif // TMI_TESTS_COMMON_MUTATION_FUZZ_HH
