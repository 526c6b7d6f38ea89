// Interactive independent-warehouse shell.
//
// Phase 1 (definition): feed CREATE TABLE / INCLUSION / INSERT / VIEW
// statements, then type `warehouse` to freeze the definition: the tool
// computes the complement, derives maintenance plans and loads W = V ∪ C.
//
// Phase 2 (operation): INSERT/DELETE statements now go to the simulated
// *sources*, which report deltas that the warehouse integrates locally;
// QUERY statements are answered from warehouse data via W^-1. The prompt
// shows the source-query counter, which stays at 0 — that is the paper.
//
// Commands: `spec` (show W, C, W^-1), `plan` (maintenance expressions),
// `state` (warehouse contents), `sources` (ground truth), `check`
// (consistency), `faults` (route deltas through a fault-injecting channel
// + recovering ingestor), `stats` (what the ingestor did about it, plus
// the runtime governor's admission counters), `limits` (inspect/set query
// deadlines, tuple budgets, admission queue bounds, and circuit-breaker
// thresholds — DESIGN.md §13), `storage <dir>` (WAL + checkpoint
// durability for every integrated delta), `storage stats`, `checkpoint`
// (force one now), `recover <dir>` (resume a crashed session from its
// storage directory), `help`, `quit`. Reads stdin; pipe a script or type.
//
// Example session:
//   CREATE TABLE Emp(clerk STRING, age INT, KEY(clerk));
//   CREATE TABLE Sale(item STRING, clerk STRING);
//   INSERT INTO Emp VALUES ('Mary', 23);
//   VIEW Sold AS Sale JOIN Emp;
//   warehouse
//   INSERT INTO Sale VALUES ('TV', 'Mary');
//   QUERY project[clerk](Sale) union project[clerk](Emp);
//   check
//   quit

#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "core/warehouse_spec.h"
#include "parser/interpreter.h"
#include "parser/parser.h"
#include "runtime/breaker.h"
#include "runtime/cancel.h"
#include "runtime/governor.h"
#include "storage/durable.h"
#include "storage/vfs.h"
#include "util/string_util.h"
#include "warehouse/channel.h"
#include "warehouse/ingest.h"
#include "warehouse/persistence.h"
#include "warehouse/warehouse.h"

namespace {

using dwc::Status;

class Repl {
 public:
  int Run() {
    std::cout << "dwc independent-warehouse shell. Type `help` for help.\n";
    std::string buffer;
    std::string line;
    while (true) {
      std::cout << (warehouse_ ? "[warehouse" +
                                     std::string(" q=") +
                                     std::to_string(source_->query_count()) +
                                     "]> "
                               : "[define]> ");
      std::cout.flush();
      if (!std::getline(std::cin, line)) {
        break;
      }
      std::string trimmed(dwc::Trim(line));
      if (trimmed.empty()) {
        continue;
      }
      if (buffer.empty() && HandleCommand(trimmed)) {
        if (quit_) {
          break;
        }
        continue;
      }
      buffer += line + "\n";
      if (trimmed.back() == ';') {
        Status status = Execute(buffer);
        if (!status.ok()) {
          std::cout << "error: " << status.ToString() << "\n";
        }
        buffer.clear();
      }
    }
    return 0;
  }

 private:
  // Returns true if `line` was a shell command.
  bool HandleCommand(const std::string& line) {
    std::string lower = dwc::ToLower(line);
    if (lower == "quit" || lower == "exit") {
      quit_ = true;
      return true;
    }
    if (lower == "help") {
      std::cout <<
          "statements (end with ';'):\n"
          "  CREATE TABLE R(a INT, b STRING, KEY(a));\n"
          "  INCLUSION R(a) SUBSETOF S(a);\n"
          "  VIEW V AS PROJECT[a](SELECT[b = 'x'](R JOIN S));\n"
          "  INSERT INTO R VALUES (1, 'x'), (2, 'y');\n"
          "  DELETE FROM R VALUES (1, 'x');\n"
          "  QUERY R JOIN S;\n"
          "commands: warehouse, spec, plan, state, sources, check, save,\n"
          "          faults <drop> <dup> <reorder> <corrupt> [seed],\n"
          "          faults off, stats, epochs, limits [<knob> <value>],\n"
          "          storage <dir>, storage stats, checkpoint,\n"
          "          recover <dir>, quit\n";
      return true;
    }
    if (lower == "epochs") {
      if (RequireWarehouse()) {
        // Snapshot-epoch observability: which state version queries pin,
        // how many readers hold pins, and what the reclamation sweep has
        // retired vs reclaimed (DESIGN.md §12).
        std::cout << "current epoch: " << warehouse_->current_epoch() << "\n"
                  << "epoch stats:   "
                  << warehouse_->epoch_stats().ToString() << "\n";
      }
      return true;
    }
    if (lower == "stats") {
      if (ingestor_ != nullptr) {
        const dwc::CircuitBreaker& breaker = ingestor_->breaker();
        std::cout << "ingestor: " << ingestor_->stats().ToString() << "\n"
                  << "channel:  " << channel_->stats().ToString() << "\n"
                  << "breaker:  state=" << dwc::BreakerStateName(breaker.state())
                  << " trips=" << breaker.trips()
                  << " probes=" << breaker.probes() << "\n";
      } else {
        std::cout << "no faulty channel attached; see `faults`\n";
      }
      std::cout << "governor: " << governor_.stats().ToString() << "\n";
      return true;
    }
    if (lower == "limits" || lower.rfind("limits ", 0) == 0) {
      HandleLimits(lower);
      return true;
    }
    if (lower == "faults" || lower.rfind("faults ", 0) == 0) {
      if (RequireWarehouse()) {
        HandleFaults(lower);
      }
      return true;
    }
    if (lower == "storage stats") {
      if (durable_ != nullptr) {
        std::cout << "storage (" << durable_->dir() << "):\n"
                  << durable_->stats().ToString() << "\n";
      } else {
        std::cout << "no storage attached; see `storage <dir>`\n";
      }
      return true;
    }
    if (lower == "storage" || lower.rfind("storage ", 0) == 0) {
      if (RequireWarehouse()) {
        HandleStorage(line);
      }
      return true;
    }
    if (lower == "checkpoint") {
      if (durable_ == nullptr) {
        std::cout << "no storage attached; see `storage <dir>`\n";
      } else {
        Status status = durable_->Checkpoint();
        if (status.ok()) {
          std::cout << "checkpoint " << durable_->stats().checkpoint_id
                    << " committed; WAL truncated to segment "
                    << durable_->stats().segment_id << "\n";
        } else {
          std::cout << "error: " << status.ToString() << "\n";
        }
      }
      return true;
    }
    if (lower == "recover" || lower.rfind("recover ", 0) == 0) {
      HandleRecover(line);
      return true;
    }
    if (lower == "warehouse") {
      Status status = Freeze();
      if (!status.ok()) {
        std::cout << "error: " << status.ToString() << "\n";
      }
      return true;
    }
    if (lower == "spec") {
      if (RequireWarehouse()) {
        std::cout << spec_->ToString();
      }
      return true;
    }
    if (lower == "plan") {
      if (RequireWarehouse()) {
        std::cout << warehouse_->plan().ToString();
      }
      return true;
    }
    if (lower == "state") {
      if (RequireWarehouse()) {
        std::cout << warehouse_->state().ToString();
      } else {
        std::cout << context_.db.ToString();
      }
      return true;
    }
    if (lower == "sources") {
      std::cout << (warehouse_ ? source_->db().ToString()
                               : context_.db.ToString());
      return true;
    }
    if (lower == "save") {
      if (RequireWarehouse()) {
        dwc::Result<std::string> script =
            dwc::WarehouseToScript(*warehouse_);
        if (script.ok()) {
          std::cout << "-- dwc checkpoint (reload by piping into this "
                       "shell, then `warehouse`)\n"
                    << *script;
        } else {
          std::cout << "error: " << script.status().ToString() << "\n";
        }
      }
      return true;
    }
    if (lower == "check") {
      if (RequireWarehouse()) {
        Status status = dwc::CheckConsistency(*warehouse_, source_->db());
        std::cout << "consistency: " << status.ToString() << "\n";
      }
      return true;
    }
    return false;
  }

  // `faults off` detaches the channel; `faults d p r c [seed]` attaches one
  // with the given per-delivery rates. Updates then travel source ->
  // channel -> ingestor instead of being integrated directly, and the
  // recovery ladder silently repairs whatever the channel mangles.
  void HandleFaults(const std::string& line) {
    std::istringstream in(line);
    std::string command, first;
    in >> command >> first;
    if (first == "off") {
      if (ingestor_ != nullptr) {
        Status status = ingestor_->Drain();
        if (!status.ok()) {
          std::cout << "error: " << status.ToString() << "\n";
        }
      }
      ingestor_.reset();
      channel_.reset();
      std::cout << "channel detached; deltas integrate directly again\n";
      return;
    }
    dwc::FaultProfile profile;
    if (first.empty()) {
      std::cout << "usage: faults <drop> <dup> <reorder> <corrupt> [seed]\n"
                   "       faults off\n";
      return;
    }
    profile.drop_rate = std::atof(first.c_str());
    if (!(in >> profile.duplicate_rate >> profile.reorder_rate >>
          profile.corrupt_rate)) {
      std::cout << "usage: faults <drop> <dup> <reorder> <corrupt> [seed]\n";
      return;
    }
    in >> profile.seed;
    channel_ = std::make_unique<dwc::DeltaChannel>(profile);
    ingestor_ = std::make_unique<dwc::DeltaIngestor>(
        warehouse_.get(), source_.get(), channel_.get(), retry_policy_);
    if (durable_ != nullptr) {
      durable_->Attach(ingestor_.get());
    }
    std::cout << "faulty channel attached (drop=" << profile.drop_rate
              << " dup=" << profile.duplicate_rate
              << " reorder=" << profile.reorder_rate
              << " corrupt=" << profile.corrupt_rate
              << " seed=" << profile.seed << "); see `stats`\n";
  }

  // `limits` prints the runtime-governor knobs; `limits <knob> <value>`
  // sets one. deadline_ms/budget bound each QUERY statement (0 = off);
  // reads/maintenance/read_queue/maintenance_queue reconfigure admission
  // live; breaker_threshold/breaker_open_ticks shape the ingest circuit
  // breaker at the *next* `faults` attachment.
  void HandleLimits(const std::string& line) {
    std::istringstream in(line);
    std::string command, knob;
    in >> command >> knob;
    if (knob.empty()) {
      dwc::GovernorOptions opts = governor_.options();
      std::cout << "query:    deadline_ms=" << deadline_ms_
                << " budget=" << budget_tuples_ << " (0 = unbounded)\n"
                << "governor: reads=" << opts.max_concurrent_reads
                << " maintenance=" << opts.max_concurrent_maintenance
                << " read_queue=" << opts.max_read_queue
                << " maintenance_queue=" << opts.max_maintenance_queue
                << " level=" << dwc::LoadLevelName(governor_.level()) << "\n"
                << "breaker:  breaker_threshold="
                << retry_policy_.breaker.failure_threshold
                << " breaker_open_ticks=" << retry_policy_.breaker.open_ticks
                << "\n";
      return;
    }
    uint64_t value = 0;
    if (!(in >> value)) {
      std::cout << "usage: limits [deadline_ms|budget|reads|maintenance|"
                   "read_queue|maintenance_queue|breaker_threshold|"
                   "breaker_open_ticks <value>]\n";
      return;
    }
    dwc::GovernorOptions opts = governor_.options();
    if (knob == "deadline_ms") {
      deadline_ms_ = value;
    } else if (knob == "budget") {
      budget_tuples_ = value;
    } else if (knob == "reads") {
      opts.max_concurrent_reads = value;
    } else if (knob == "maintenance") {
      opts.max_concurrent_maintenance = value;
    } else if (knob == "read_queue") {
      opts.max_read_queue = value;
    } else if (knob == "maintenance_queue") {
      opts.max_maintenance_queue = value;
    } else if (knob == "breaker_threshold") {
      retry_policy_.breaker.failure_threshold = static_cast<int>(value);
      if (ingestor_ != nullptr) {
        std::cout << "note: applies when `faults` next attaches a channel\n";
      }
    } else if (knob == "breaker_open_ticks") {
      retry_policy_.breaker.open_ticks = value;
      if (ingestor_ != nullptr) {
        std::cout << "note: applies when `faults` next attaches a channel\n";
      }
    } else {
      std::cout << "unknown knob '" << knob << "'; see `limits`\n";
      return;
    }
    governor_.set_options(opts);
    std::cout << knob << " = " << value << "\n";
  }

  // `storage <dir>`: bootstrap WAL + checkpoint durability into `dir`.
  // Every delta integrated from here on is fsync'd before the statement
  // reports success, and `recover <dir>` resurrects the session.
  void HandleStorage(const std::string& line) {
    std::istringstream in(line);
    std::string command, dir;
    in >> command >> dir;
    if (dir.empty()) {
      std::cout << "usage: storage <dir> | storage stats\n";
      return;
    }
    if (durable_ != nullptr) {
      std::cout << "storage already attached at '" << durable_->dir()
                << "'\n";
      return;
    }
    dwc::Result<std::unique_ptr<dwc::DurableWarehouse>> durable =
        dwc::DurableWarehouse::Bootstrap(
            &vfs_, dir, warehouse_.get(),
            dwc::JournalStamp{source_->epoch(), source_->last_sequence()});
    if (!durable.ok()) {
      std::cout << "error: " << durable.status().ToString() << "\n";
      return;
    }
    durable_ = std::move(durable).value();
    if (ingestor_ != nullptr) {
      durable_->Attach(ingestor_.get());
    }
    std::cout << "storage attached at '" << dir
              << "': checkpoint 1 committed, WAL open\n";
  }

  // `recover <dir>`: replace the whole session with the recovered one.
  void HandleRecover(const std::string& line) {
    std::istringstream in(line);
    std::string command, dir;
    in >> command >> dir;
    if (dir.empty()) {
      std::cout << "usage: recover <dir>\n";
      return;
    }
    dwc::Result<dwc::DurableWarehouse::Resumed> resumed =
        dwc::DurableWarehouse::Resume(&vfs_, dir);
    if (!resumed.ok()) {
      std::cout << "error: " << resumed.status().ToString() << "\n";
      return;
    }
    // The recovered warehouse replaces the live session wholesale; the
    // ingestor/channel, if any, referenced the old objects and must go.
    ingestor_.reset();
    channel_.reset();
    spec_ = resumed->recovered.restored.spec;
    source_ = std::move(resumed->recovered.restored.source);
    warehouse_ = std::move(resumed->recovered.restored.warehouse);
    durable_ = std::move(resumed->durable);
    std::cout << "recovered: " << resumed->recovered.report.ToString()
              << "\n";
  }

  bool RequireWarehouse() {
    if (warehouse_ == nullptr) {
      std::cout << "no warehouse yet; type `warehouse` after defining views\n";
      return false;
    }
    return true;
  }

  Status Freeze() {
    if (warehouse_ != nullptr) {
      return Status::FailedPrecondition("warehouse already loaded");
    }
    if (context_.views.empty()) {
      return Status::FailedPrecondition("define at least one VIEW first");
    }
    DWC_RETURN_IF_ERROR(context_.db.ValidateConstraints());
    dwc::Result<dwc::WarehouseSpec> spec =
        dwc::SpecifyWarehouse(context_.catalog, context_.views);
    if (!spec.ok()) {
      return spec.status();
    }
    spec_ = std::make_shared<dwc::WarehouseSpec>(std::move(spec).value());
    source_ = std::make_unique<dwc::Source>(context_.db);
    dwc::Result<dwc::Warehouse> warehouse =
        dwc::Warehouse::Load(spec_, source_->db());
    if (!warehouse.ok()) {
      return warehouse.status();
    }
    warehouse_ =
        std::make_unique<dwc::Warehouse>(std::move(warehouse).value());
    std::cout << "warehouse loaded: " << spec_->views().size() << " views + "
              << spec_->complements().size() << " complement views\n";
    for (const dwc::AggregateViewDef& def : context_.summaries) {
      DWC_RETURN_IF_ERROR(warehouse_->AddAggregateView(def));
      std::cout << "summary table '" << def.name << "' materialized\n";
    }
    return Status::Ok();
  }

  Status Execute(const std::string& text) {
    dwc::Result<std::vector<dwc::Statement>> statements =
        dwc::ParseProgram(text);
    if (!statements.ok()) {
      return statements.status();
    }
    for (dwc::Statement& statement : *statements) {
      DWC_RETURN_IF_ERROR(ExecuteOne(statement));
    }
    return Status::Ok();
  }

  Status ExecuteOne(dwc::Statement& statement) {
    if (warehouse_ == nullptr) {
      // Definition phase: delegate to the script interpreter semantics by
      // re-running against the accumulated context. Simplest correct path:
      // rebuild via RunScript would lose state, so interpret directly.
      return ApplyDefinitionStatement(statement);
    }
    // Operation phase.
    if (auto* insert = std::get_if<dwc::InsertStmt>(&statement)) {
      return ApplyUpdate(insert->relation, insert->tuples, {});
    }
    if (auto* del = std::get_if<dwc::DeleteStmt>(&statement)) {
      return ApplyUpdate(del->relation, {}, del->tuples);
    }
    if (auto* query = std::get_if<dwc::QueryStmt>(&statement)) {
      // Governed read: admission first (a single-threaded shell never
      // queues, but epoch lag can still shed), then a per-query token
      // carrying the configured deadline/budget (see `limits`).
      std::shared_ptr<dwc::CancelToken> token;
      if (deadline_ms_ > 0 || budget_tuples_ > 0) {
        token = std::make_shared<dwc::CancelToken>();
        if (deadline_ms_ > 0) {
          token->set_deadline(dwc::CancelToken::Clock::now() +
                              std::chrono::milliseconds(deadline_ms_));
        }
        if (budget_tuples_ > 0) {
          token->set_budget_tuples(budget_tuples_);
        }
      }
      dwc::Result<dwc::Governor::Ticket> ticket =
          governor_.AdmitRead(token.get());
      if (!ticket.ok()) {
        return ticket.status();
      }
      dwc::EvalStats stats;
      dwc::Result<dwc::Relation> answer =
          warehouse_->AnswerQuery(query->expr, &stats, token.get());
      if (!answer.ok()) {
        return answer.status();
      }
      std::cout << "explain: " << stats.ToString() << "\n";
      dwc::Result<dwc::ExprRef> translated =
          dwc::TranslateQuery(query->expr, *spec_);
      if (translated.ok()) {
        std::cout << "translated: " << (*translated)->ToString() << "\n";
      }
      std::cout << answer->ToString() << "\n";
      return Status::Ok();
    }
    if (auto* summary = std::get_if<dwc::SummaryStmt>(&statement)) {
      DWC_RETURN_IF_ERROR(warehouse_->AddAggregateView(summary->def));
      std::cout << "summary table '" << summary->def.name
                << "' materialized and maintained\n";
      return Status::Ok();
    }
    return Status::FailedPrecondition(
        "schema/view statements are frozen once the warehouse is loaded");
  }

  Status ApplyDefinitionStatement(dwc::Statement& statement) {
    // Mirrors parser/interpreter.cc for a single statement.
    if (auto* create = std::get_if<dwc::CreateTableStmt>(&statement)) {
      DWC_RETURN_IF_ERROR(
          context_.catalog->AddRelation(create->name, create->schema));
      if (create->key.has_value()) {
        DWC_RETURN_IF_ERROR(
            context_.catalog->AddKey(create->name, *create->key));
      }
      return context_.db.AddEmptyRelation(create->name, create->schema);
    }
    if (auto* inclusion = std::get_if<dwc::InclusionStmt>(&statement)) {
      return context_.catalog->AddInclusion(inclusion->ind);
    }
    if (auto* view = std::get_if<dwc::ViewStmt>(&statement)) {
      context_.views.push_back(dwc::ViewDef{view->name, view->expr});
      return Status::Ok();
    }
    if (auto* insert = std::get_if<dwc::InsertStmt>(&statement)) {
      dwc::Relation* rel = context_.db.FindMutableRelation(insert->relation);
      if (rel == nullptr) {
        return Status::NotFound("unknown relation " + insert->relation);
      }
      for (dwc::Tuple& tuple : insert->tuples) {
        rel->Insert(std::move(tuple));
      }
      return Status::Ok();
    }
    if (auto* del = std::get_if<dwc::DeleteStmt>(&statement)) {
      dwc::Relation* rel = context_.db.FindMutableRelation(del->relation);
      if (rel == nullptr) {
        return Status::NotFound("unknown relation " + del->relation);
      }
      for (const dwc::Tuple& tuple : del->tuples) {
        rel->Erase(tuple);
      }
      return Status::Ok();
    }
    if (auto* query = std::get_if<dwc::QueryStmt>(&statement)) {
      dwc::Result<dwc::Relation> answer = context_.Evaluate(query->expr);
      if (!answer.ok()) {
        return answer.status();
      }
      std::cout << answer->ToString() << "\n";
      return Status::Ok();
    }
    if (auto* summary = std::get_if<dwc::SummaryStmt>(&statement)) {
      context_.summaries.push_back(summary->def);
      std::cout << "summary '" << summary->def.name
                << "' recorded (materializes at `warehouse`)\n";
      return Status::Ok();
    }
    return Status::Internal("unhandled statement");
  }

  Status ApplyUpdate(const std::string& relation,
                     std::vector<dwc::Tuple> inserts,
                     std::vector<dwc::Tuple> deletes) {
    dwc::UpdateOp op{relation, std::move(inserts), std::move(deletes)};
    dwc::Result<dwc::CanonicalDelta> delta = source_->Apply(op);
    if (!delta.ok()) {
      return delta.status();
    }
    DWC_RETURN_IF_ERROR(source_->db().ValidateConstraints());
    if (ingestor_ != nullptr) {
      channel_->Send(*delta);
      for (std::optional<dwc::CanonicalDelta> got = channel_->Poll(); got;
           got = channel_->Poll()) {
        DWC_RETURN_IF_ERROR(ingestor_->Receive(*got));
      }
      DWC_RETURN_IF_ERROR(ingestor_->Drain());
    } else if (durable_ != nullptr) {
      // Integrate-then-log: the delta is fsync'd before we report success.
      DWC_RETURN_IF_ERROR(durable_->Integrate(*delta, source_.get()));
    } else {
      DWC_RETURN_IF_ERROR(warehouse_->Integrate(*delta));
    }
    std::cout << "integrated: +" << delta->inserts.size() << " / -"
              << delta->deletes.size() << " on " << relation
              << " (source queries: " << source_->query_count() << ")\n";
    return Status::Ok();
  }

  dwc::ScriptContext context_;
  std::shared_ptr<dwc::WarehouseSpec> spec_;
  std::unique_ptr<dwc::Source> source_;
  std::unique_ptr<dwc::Warehouse> warehouse_;
  std::unique_ptr<dwc::DeltaChannel> channel_;
  std::unique_ptr<dwc::DeltaIngestor> ingestor_;
  dwc::PosixVfs vfs_;
  std::unique_ptr<dwc::DurableWarehouse> durable_;
  dwc::Governor governor_;
  dwc::RetryPolicy retry_policy_;
  uint64_t deadline_ms_ = 0;   // 0 = no per-query deadline.
  size_t budget_tuples_ = 0;   // 0 = no per-query tuple budget.
  bool quit_ = false;
};

}  // namespace

int main() { return Repl().Run(); }
