#include "src/serve/shard.h"

#include <string>
#include <utility>

namespace phom::serve {

namespace {

Status BadShard(size_t shard, size_t num_shards) {
  return Status::Invalid("serve: shard " + std::to_string(shard) +
                         " out of range (server has " +
                         std::to_string(num_shards) + " shards)");
}

}  // namespace

ShardedServer::ShardedServer(std::vector<ProbGraph> shards,
                             ShardedServerOptions options)
    : options_(std::move(options)),
      cache_(std::make_shared<ContextLru>(options_.context_cache)),
      executor_(options_.executor) {
  sessions_.reserve(shards.size());
  for (ProbGraph& shard : shards) {
    sessions_.push_back(std::make_unique<EvalSession>(
        std::move(shard), options_.solve, cache_));
  }
}

SolveTicket ShardedServer::Submit(SolveRequest request,
                                  CompletionCallback callback) {
  if (request.shard >= sessions_.size()) {
    return SolveTicket::Completed(BadShard(request.shard, sessions_.size()),
                                  callback);
  }
  if (request.query == nullptr) {
    return SolveTicket::Completed(
        Status::Invalid("serve: null query in request"), callback);
  }
  EvalSession& session = *sessions_[request.shard];
  return executor_.Submit(session, std::move(request), std::move(callback));
}

std::vector<SolveTicket> ShardedServer::SubmitBatch(
    std::vector<SolveRequest> requests) {
  std::vector<SolveTicket> tickets;
  tickets.reserve(requests.size());
  for (SolveRequest& request : requests) {
    tickets.push_back(Submit(std::move(request)));
  }
  return tickets;
}

std::vector<Result<SolveResult>> ShardedServer::Collect(
    std::vector<SolveTicket>& tickets) {
  return executor_.CollectHelping(tickets);
}

Result<SolveResult> ShardedServer::Solve(size_t shard, const DiGraph& query) {
  std::vector<SolveTicket> tickets;
  tickets.push_back(Submit(SolveRequest::BorrowQuery(query, shard)));
  return std::move(Collect(tickets)[0]);
}

std::vector<Result<SolveResult>> ShardedServer::SolveBatch(
    size_t shard, const std::vector<DiGraph>& queries) {
  std::vector<SolveTicket> tickets;
  tickets.reserve(queries.size());
  for (const DiGraph& query : queries) {
    tickets.push_back(Submit(SolveRequest::BorrowQuery(query, shard)));
  }
  return Collect(tickets);
}

}  // namespace phom::serve
