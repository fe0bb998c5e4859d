// Fixture: an acceptor that appends each promise and vote but sends the
// reply in the same turn — before any sync made the record durable.

impl Acceptor {
    fn on_prepare(&mut self, ctx: &mut Context, from: NodeId) {
        let outcome = self.handle_prepare(self.group, self.position, self.ballot);
        self.persist_promise(self.group, self.position, self.ballot);
        ctx.send(
            from,
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
        self.persist_vote(self.group, self.position, self.ballot, &value);
        ctx.send(
            from,
            Msg::Paxos(PaxosMsg::AcceptReply {
                group: self.group,
                position: self.position,
                ballot: self.ballot,
                accepted,
            }),
        );
    }
}
