/**
 * @file
 * RefPtsb: the PTSB's byte-at-a-time page diff, kept only as a test
 * oracle for Ptsb::mergePage.
 *
 * This is the loop Ptsb::commit ran before it compared a word at a
 * time: every byte of every scanned 4 KB chunk is compared against
 * the twin, in address order, with the same charges. Run it in
 * lockstep with Ptsb::mergePage on copies of the same page and
 * compare every CommitResult field, the merged shared bytes and the
 * merged-line sequence (tests/ref/ref_ptsb_test.cc).
 */

#ifndef TMI_TESTS_REF_REF_PTSB_HH
#define TMI_TESTS_REF_REF_PTSB_HH

#include <vector>

#include "ptsb/ptsb.hh"

namespace tmi
{

/** The reference page diff (see file comment). */
struct RefPtsb
{
    /** Same contract as Ptsb::mergePage. */
    static void mergePage(const std::uint8_t *priv,
                          const std::uint8_t *snap, std::uint8_t *shared,
                          Addr page_bytes, PPage shared_frame,
                          const PtsbCosts &costs, CommitResult &res,
                          std::vector<Addr> &merged_lines);
};

} // namespace tmi

#endif // TMI_TESTS_REF_REF_PTSB_HH
