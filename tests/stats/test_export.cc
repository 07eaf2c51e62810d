/** @file Tests for CSV/JSON table export. */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "stats/export.hh"

using pdr::stats::Table;

TEST(TableExport, CsvRoundTripSimple)
{
    Table t({"a", "b"});
    t.addRow({"1", "x"});
    t.addRow({"2.5", "y"});
    EXPECT_EQ(t.toCsv(), "a,b\n1,x\n2.5,y\n");
}

TEST(TableExport, CsvQuotesSpecialCells)
{
    Table t({"label", "note"});
    t.addRow({"a,b", "he said \"hi\""});
    EXPECT_EQ(t.toCsv(),
              "label,note\n\"a,b\",\"he said \"\"hi\"\"\"\n");
}

TEST(TableExport, CsvReadUndoesWrite)
{
    Table t({"label", "note", "value"});
    t.addRow({"a,b", "he said \"hi\"", "1"});
    t.addRow({"two\nlines", "", "2.5"});
    t.addRow({"", "carriage\rreturn", ""});
    std::istringstream in(t.toCsv());
    Table back = Table::readCsv(in, "t.csv");
    EXPECT_EQ(back.header(), t.header());
    EXPECT_EQ(back.rows(), t.rows());

    // CRLF row ends, as a Windows tool rewrites the file.
    std::istringstream crlf("a,b\r\n\"x,y\",\r\n1,2\r\n");
    Table c = Table::readCsv(crlf, "crlf.csv");
    ASSERT_EQ(c.numRows(), 2u);
    EXPECT_EQ(c.rows()[0], (std::vector<std::string>{"x,y", ""}));
    EXPECT_EQ(c.rows()[1], (std::vector<std::string>{"1", "2"}));

    // Malformed input is a named error: file, line and what is wrong.
    auto error = [](const std::string &text) {
        std::istringstream bad(text);
        try {
            Table::readCsv(bad, "bad.csv");
        } catch (const std::invalid_argument &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    EXPECT_EQ(error(""), "'bad.csv' is empty");
    EXPECT_EQ(error("a,b\n\"open,1\n2,3\n"),
              "'bad.csv' line 2: unterminated quoted cell");
    EXPECT_EQ(error("a,b\nx\"y,1\n"),
              "'bad.csv' line 2: stray quote in an unquoted cell");
    EXPECT_EQ(error("a,b\n\"x\"y,1\n"),
              "'bad.csv' line 2: stray quote: text after a closing "
              "quote");
    EXPECT_EQ(error("a,b\n1,2\n\"p\nq\"\n"),
              "'bad.csv' line 3: 1 cells, header has 2");
    EXPECT_EQ(error("a,b\n1,2,3\n"),
              "'bad.csv' line 2: 3 cells, header has 2");
}

TEST(TableExport, JsonEmitsNumbersUnquoted)
{
    Table t({"name", "value"});
    t.addRow({"zero_load", "29.5"});
    t.addRow({"comment", "not a number"});
    auto json = t.toJson();
    EXPECT_NE(json.find("\"value\": 29.5"), std::string::npos);
    EXPECT_NE(json.find("\"value\": \"not a number\""),
              std::string::npos);
}

TEST(TableExport, JsonQuotesNonJsonNumerics)
{
    // strtod-parsable but not valid JSON numbers: must stay quoted.
    Table t({"v"});
    for (const char *s :
         {"0x1A", "+5", ".5", "5.", "inf", "nan", "007", "1e"})
        t.addRow({s});
    t.addRow({"-0.5"});
    t.addRow({"1e+06"});
    auto json = t.toJson();
    EXPECT_NE(json.find("\"v\": \"0x1A\""), std::string::npos);
    EXPECT_NE(json.find("\"v\": \"+5\""), std::string::npos);
    EXPECT_NE(json.find("\"v\": \".5\""), std::string::npos);
    EXPECT_NE(json.find("\"v\": \"5.\""), std::string::npos);
    EXPECT_NE(json.find("\"v\": \"inf\""), std::string::npos);
    EXPECT_NE(json.find("\"v\": \"nan\""), std::string::npos);
    EXPECT_NE(json.find("\"v\": \"007\""), std::string::npos);
    EXPECT_NE(json.find("\"v\": \"1e\""), std::string::npos);
    EXPECT_NE(json.find("\"v\": -0.5"), std::string::npos);
    EXPECT_NE(json.find("\"v\": 1e+06"), std::string::npos);
}

TEST(TableExport, JsonEscapesStrings)
{
    Table t({"s"});
    t.addRow({"line\nbreak \"q\" back\\slash"});
    auto json = t.toJson();
    EXPECT_NE(json.find("line\\nbreak \\\"q\\\" back\\\\slash"),
              std::string::npos);
}

TEST(TableExport, CellFormatting)
{
    EXPECT_EQ(Table::cell(1.25), "1.25");
    EXPECT_EQ(Table::cell(std::uint64_t(42)), "42");
    EXPECT_EQ(Table::cell(true), "true");
    EXPECT_EQ(Table::cell(false), "false");
}
