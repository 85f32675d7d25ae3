// The writer and file helpers of util/delimited, and the reference
// table reader (tests/ingest_reference.h) the ingest differential oracles
// compare the production quarter reader against.

#include "util/delimited.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "tests/ingest_reference.h"

namespace maras {
namespace {

using reference::DelimitedReader;
using reference::DelimitedRowIssue;

TEST(DelimitedReaderTest, ParsesHeaderAndRows) {
  DelimitedReader reader('$');
  auto table = reader.ParseString("a$b$c\n1$2$3\n4$5$6\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1], (std::vector<std::string>{"4", "5", "6"}));
}

TEST(DelimitedReaderTest, HandlesCrLfAndBlankLines) {
  DelimitedReader reader(',');
  auto table = reader.ParseString("x,y\r\n\r\n1,2\r\n");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0], (std::vector<std::string>{"1", "2"}));
}

TEST(DelimitedReaderTest, MissingFinalNewlineOk) {
  DelimitedReader reader(',');
  auto table = reader.ParseString("x,y\n1,2");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 1u);
}

TEST(DelimitedReaderTest, RowWidthMismatchIsCorruption) {
  DelimitedReader reader(',');
  auto table = reader.ParseString("x,y\n1,2,3\n");
  EXPECT_TRUE(table.status().IsCorruption());
}

TEST(DelimitedReaderTest, EmptyContentIsCorruption) {
  DelimitedReader reader(',');
  EXPECT_TRUE(reader.ParseString("").status().IsCorruption());
}

TEST(DelimitedReaderTest, EmptyFieldsPreserved) {
  DelimitedReader reader('$');
  auto table = reader.ParseString("a$b\n$\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0], (std::vector<std::string>{"", ""}));
}

TEST(DelimitedTableTest, ColumnIndex) {
  reference::DelimitedTable table;
  table.header = {"primaryid", "caseid", "pt"};
  EXPECT_EQ(table.ColumnIndex("caseid"), 1);
  EXPECT_EQ(table.ColumnIndex("absent"), -1);
}

TEST(DelimitedWriterTest, RoundTrip) {
  DelimitedTable table;
  table.header = {"a", "b"};
  table.rows = {{"1", "2"}, {"", "x y"}};
  DelimitedWriter writer('$');
  auto text = writer.ToString(table);
  ASSERT_TRUE(text.ok());
  DelimitedReader reader('$');
  auto parsed = reader.ParseString(*text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, table.header);
  EXPECT_EQ(parsed->rows, table.rows);
}

TEST(DelimitedWriterTest, WidthMismatchRejected) {
  DelimitedTable table;
  table.header = {"a", "b"};
  table.rows = {{"only-one"}};
  DelimitedWriter writer(',');
  EXPECT_TRUE(writer.ToString(table).status().IsInvalidArgument());
}

TEST(DelimitedPermissiveTest, BadRowsAreCollectedNotFatal) {
  DelimitedReader reader('$');
  std::vector<DelimitedRowIssue> issues;
  auto table = reader.ParseString("a$b$c\n1$2$3\nshort$row\n4$5$6\n1$2$3$4\n",
                                  &issues);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->row_lines, (std::vector<size_t>{2, 4}));
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].line, 3u);
  EXPECT_EQ(issues[0].content, "short$row");
  EXPECT_NE(issues[0].reason.find("2 fields, expected 3"), std::string::npos);
  EXPECT_EQ(issues[1].line, 5u);
}

TEST(DelimitedPermissiveTest, MissingHeaderStillFails) {
  DelimitedReader reader('$');
  std::vector<DelimitedRowIssue> issues;
  EXPECT_TRUE(reader.ParseString("", &issues).status().IsCorruption());
}

TEST(DelimitedPermissiveTest, RowLinesAccountForBlankLines) {
  DelimitedReader reader(',');
  auto table = reader.ParseString("h1,h2\n\na,b\n\nc,d\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->row_lines, (std::vector<size_t>{3, 5}));
}

TEST(FileIoTest, WriteAndReadBack) {
  std::string path = ::testing::TempDir() + "/maras_delim_test.txt";
  ASSERT_TRUE(WriteStringToFile(path, "hello\nworld\n").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello\nworld\n");
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(
      ReadFileToString("/nonexistent/dir/file.txt").status().IsIOError());
}

TEST(FileIoTest, DirectoryIsIOError) {
  EXPECT_TRUE(ReadFileToString(::testing::TempDir()).status().IsIOError());
}

TEST(FileIoTest, ReadsEmptyAndLargeFiles) {
  const std::string path = ::testing::TempDir() + "/maras_delim_sizes.txt";
  for (size_t size : {size_t{0}, size_t{1}, size_t{4096}, size_t{70001}}) {
    std::string content(size, 'x');
    for (size_t i = 0; i < size; i += 97) content[i] = '\n';
    ASSERT_TRUE(WriteStringToFile(path, content).ok());
    auto read = ReadFileToString(path);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, content) << size;
  }
  std::remove(path.c_str());
}

TEST(FileIoTest, ReadWriteFileTable) {
  std::string path = ::testing::TempDir() + "/maras_table_test.txt";
  DelimitedTable table;
  table.header = {"h1", "h2"};
  table.rows = {{"v1", "v2"}};
  DelimitedWriter writer('$');
  ASSERT_TRUE(writer.WriteFile(path, table).ok());
  DelimitedReader reader('$');
  auto parsed = reader.ReadFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows, table.rows);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace maras
