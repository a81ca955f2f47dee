// Cross-thread Buffer handoff through runtime::Mailbox: the zero-copy wire
// fabric ships one shared backing allocation to many consumers, so the
// shared_ptr control block and the immutable payload bytes are read from
// several threads at once. These tests run under the ThreadSanitizer CI job
// (suite name matches its Mailbox filter) to prove the fabric is race-free:
// concurrent ref bumps, reads of aliased storage, and releases where the
// last owner dies on a different thread than the one that materialized it.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/buffer.hpp"
#include "runtime/mailbox.hpp"

namespace byzcast::runtime {
namespace {

Bytes patterned(std::size_t n, std::uint8_t base) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(base + i);
  }
  return b;
}

TEST(MailboxBufferHandoff, SingleProducerShipsAliasedCopies) {
  constexpr int kCopies = 64;
  Mailbox<Buffer> box(8);

  const std::uint64_t before = Buffer::materializations();
  std::thread producer([&box] {
    const Buffer payload{patterned(256, 3)};  // one materialization
    for (int i = 0; i < kCopies; ++i) {
      ASSERT_TRUE(box.push(payload));  // ref bump per recipient
    }
    box.close();
  });

  // Consumer side: every copy aliases the same storage and reads the same
  // bytes, concurrently with the producer still pushing further refs.
  std::vector<Buffer> received;
  std::vector<Buffer> batch;
  while (box.drain(batch)) {
    for (Buffer& b : batch) received.push_back(std::move(b));
    batch.clear();
  }
  producer.join();

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kCopies));
  EXPECT_EQ(Buffer::materializations(), before + 1);
  const std::uint8_t* data = received.front().data();
  for (const Buffer& b : received) {
    ASSERT_EQ(b.size(), 256u);
    EXPECT_EQ(b.data(), data);
    EXPECT_EQ(b[0], 3);
    EXPECT_EQ(b[255], static_cast<std::uint8_t>(3 + 255));
  }
}

TEST(MailboxBufferHandoff, SliceStaysValidAfterProducerReleasesParent) {
  Mailbox<Buffer> box(4);
  std::thread producer([&box] {
    // The parent Buffer dies on this thread before the consumer reads the
    // slice; the slice's shared ownership must keep the bytes alive across
    // the thread boundary.
    const Buffer parent{patterned(128, 40)};
    ASSERT_TRUE(box.push(parent.slice(32, 64)));
    box.close();
  });
  producer.join();  // parent destroyed before we pop

  std::vector<Buffer> batch;
  ASSERT_TRUE(box.drain(batch));
  ASSERT_EQ(batch.size(), 1u);
  const Buffer& slice = batch.front();
  ASSERT_EQ(slice.size(), 64u);
  for (std::size_t i = 0; i < slice.size(); ++i) {
    EXPECT_EQ(slice[i], static_cast<std::uint8_t>(40 + 32 + i));
  }
}

TEST(MailboxBufferHandoff, ManyProducersFanOutOneSharedPayload) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 32;
  Mailbox<Buffer> box(16);

  // One payload shared by all producer threads: concurrent ref bumps on one
  // control block, concurrent reads of one byte range.
  const Buffer shared{patterned(512, 11)};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, &shared] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(box.push(shared));
      }
    });
  }

  int popped = 0;
  std::uint64_t checksum = 0;
  std::vector<Buffer> batch;
  while (popped < kProducers * kPerProducer && box.drain(batch)) {
    for (const Buffer& item : batch) {
      ++popped;
      ASSERT_EQ(item.data(), shared.data());
      checksum += item[static_cast<std::size_t>(popped) % item.size()];
    }
    batch.clear();  // release these refs on the consumer thread
  }
  for (std::thread& t : producers) t.join();
  box.close();

  EXPECT_EQ(popped, kProducers * kPerProducer);
  EXPECT_GT(checksum, 0u);
}

TEST(MailboxBufferHandoff, LastOwnerMayDieOnConsumerThread) {
  Mailbox<Buffer> box(2);
  const std::uint8_t* data = nullptr;
  std::thread producer([&box, &data] {
    Buffer only{patterned(64, 90)};
    data = only.data();
    ASSERT_TRUE(box.push(std::move(only)));
    box.close();
  });
  producer.join();

  {
    std::vector<Buffer> batch;
    ASSERT_TRUE(box.drain(batch));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch.front().data(), data);
    EXPECT_EQ(batch.front()[63], static_cast<std::uint8_t>(90 + 63));
  }  // the final ref — storage is freed here, on the consumer thread
}

}  // namespace
}  // namespace byzcast::runtime
