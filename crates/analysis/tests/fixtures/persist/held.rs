// Fixture: a durable acceptor that appends each promise and vote and hands
// the reply to the release path, which holds it until a sync covers it.

impl Acceptor {
    fn on_prepare(&mut self, ctx: &mut Context, from: NodeId) {
        let outcome = self.handle_prepare(self.group, self.position, self.ballot);
        let held = outcome.promised && self.persist_promise(self.group, self.position, self.ballot);
        self.ack_after_sync(
            ctx,
            from,
            held,
            Msg::Paxos(PaxosMsg::PrepareReply {
                group: self.group,
                position: self.position,
                ballot: self.ballot,
                promised: outcome.promised,
                next_bal: outcome.next_bal,
                last_vote: outcome.last_vote,
            }),
        );
    }

    fn on_accept(&mut self, ctx: &mut Context, from: NodeId, value: LogEntry) {
        let accepted = self.handle_accept(self.group, self.position, self.ballot, &value);
        let held = accepted && self.persist_vote(self.group, self.position, self.ballot, &value);
        self.ack_after_sync(
            ctx,
            from,
            held,
            Msg::Paxos(PaxosMsg::AcceptReply {
                group: self.group,
                position: self.position,
                ballot: self.ballot,
                accepted,
            }),
        );
    }
}
